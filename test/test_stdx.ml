(* Unit and property tests for the stdx substrate. *)

let icmp = Int.compare

let sorted_int_list =
  QCheck.(make ~print:Print.(list int) Gen.(map (List.sort_uniq icmp) (list (int_bound 200))))

let check_sorted name f =
  QCheck.Test.make ~name ~count:300
    QCheck.(pair sorted_int_list sorted_int_list)
    f

module Iset = Set.Make (Int)

let prng_tests =
  [
    Alcotest.test_case "same seed, same stream" `Quick (fun () ->
        let a = Stdx.Prng.create 42 and b = Stdx.Prng.create 42 in
        for _ = 1 to 100 do
          Alcotest.(check int64)
            "stream" (Stdx.Prng.next_int64 a) (Stdx.Prng.next_int64 b)
        done);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Stdx.Prng.create 1 and b = Stdx.Prng.create 2 in
        Alcotest.(check bool)
          "diverge" true
          (Stdx.Prng.next_int64 a <> Stdx.Prng.next_int64 b));
    Alcotest.test_case "int respects bound" `Quick (fun () ->
        let t = Stdx.Prng.create 7 in
        for _ = 1 to 1000 do
          let x = Stdx.Prng.int t 13 in
          Alcotest.(check bool) "in range" true (x >= 0 && x < 13)
        done);
    Alcotest.test_case "int_in inclusive bounds" `Quick (fun () ->
        let t = Stdx.Prng.create 7 in
        let seen_lo = ref false and seen_hi = ref false in
        for _ = 1 to 2000 do
          let x = Stdx.Prng.int_in t 3 5 in
          if x = 3 then seen_lo := true;
          if x = 5 then seen_hi := true;
          Alcotest.(check bool) "in range" true (x >= 3 && x <= 5)
        done;
        Alcotest.(check bool) "lo reached" true !seen_lo;
        Alcotest.(check bool) "hi reached" true !seen_hi);
    Alcotest.test_case "split streams are independent" `Quick (fun () ->
        let t = Stdx.Prng.create 99 in
        let u = Stdx.Prng.split t in
        Alcotest.(check bool)
          "diverge" true
          (Stdx.Prng.next_int64 t <> Stdx.Prng.next_int64 u));
    Alcotest.test_case "shuffle is a permutation" `Quick (fun () ->
        let t = Stdx.Prng.create 3 in
        let a = Array.init 50 Fun.id in
        Stdx.Prng.shuffle t a;
        let sorted = Array.copy a in
        Array.sort icmp sorted;
        Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted);
    Alcotest.test_case "sample draws distinct elements" `Quick (fun () ->
        let t = Stdx.Prng.create 5 in
        let xs = List.init 20 Fun.id in
        let s = Stdx.Prng.sample t 8 xs in
        Alcotest.(check int) "size" 8 (List.length s);
        Alcotest.(check int) "distinct" 8 (Iset.cardinal (Iset.of_list s)));
  ]

let sorted_array_props =
  [
    check_sorted "union = set union" (fun (a, b) ->
        let got =
          Stdx.Sorted_array.union ~cmp:icmp (Array.of_list a) (Array.of_list b)
        in
        let want = Iset.elements (Iset.union (Iset.of_list a) (Iset.of_list b)) in
        Array.to_list got = want);
    check_sorted "inter = set inter" (fun (a, b) ->
        let got =
          Stdx.Sorted_array.inter ~cmp:icmp (Array.of_list a) (Array.of_list b)
        in
        let want = Iset.elements (Iset.inter (Iset.of_list a) (Iset.of_list b)) in
        Array.to_list got = want);
    check_sorted "diff = set diff" (fun (a, b) ->
        let got =
          Stdx.Sorted_array.diff ~cmp:icmp (Array.of_list a) (Array.of_list b)
        in
        let want = Iset.elements (Iset.diff (Iset.of_list a) (Iset.of_list b)) in
        Array.to_list got = want);
    check_sorted "subset agrees with Set.subset" (fun (a, b) ->
        Stdx.Sorted_array.subset ~cmp:icmp (Array.of_list a) (Array.of_list b)
        = Iset.subset (Iset.of_list a) (Iset.of_list b));
    QCheck.Test.make ~name:"of_list sorts and dedups" ~count:300
      QCheck.(list (int_bound 50))
      (fun xs ->
        let got = Stdx.Sorted_array.of_list ~cmp:icmp xs in
        Array.to_list got = List.sort_uniq icmp xs);
    QCheck.Test.make ~name:"lower/upper bound bracket" ~count:300
      QCheck.(pair sorted_int_list (int_bound 200))
      (fun (xs, x) ->
        let a = Array.of_list xs in
        let lo = Stdx.Sorted_array.lower_bound ~cmp:icmp a x in
        let hi = Stdx.Sorted_array.upper_bound ~cmp:icmp a x in
        lo <= hi
        && (lo = 0 || a.(lo - 1) < x)
        && (lo >= Array.length a || a.(lo) >= x)
        && (hi >= Array.length a || a.(hi) > x)
        && (hi = 0 || a.(hi - 1) <= x));
  ]

let sorted_array_units =
  [
    Alcotest.test_case "mem on empty" `Quick (fun () ->
        Alcotest.(check bool) "absent" false
          (Stdx.Sorted_array.mem ~cmp:icmp [||] 3));
    Alcotest.test_case "union with empty" `Quick (fun () ->
        let a = [| 1; 3; 5 |] in
        Alcotest.(check (array int))
          "left" a
          (Stdx.Sorted_array.union ~cmp:icmp a [||]);
        Alcotest.(check (array int))
          "right" a
          (Stdx.Sorted_array.union ~cmp:icmp [||] a));
    Alcotest.test_case "is_sorted detects disorder" `Quick (fun () ->
        Alcotest.(check bool) "ok" true
          (Stdx.Sorted_array.is_sorted ~cmp:icmp [| 1; 2; 9 |]);
        Alcotest.(check bool) "dup" false
          (Stdx.Sorted_array.is_sorted ~cmp:icmp [| 1; 1 |]);
        Alcotest.(check bool) "desc" false
          (Stdx.Sorted_array.is_sorted ~cmp:icmp [| 2; 1 |]));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"filter = List.filter, applied in order"
         ~count:200
         QCheck.(pair (list small_nat) small_nat)
         (fun (l, m) ->
           let a = Stdx.Sorted_array.of_list ~cmp:icmp l in
           let seen = ref [] in
           let p x =
             seen := x :: !seen;
             x mod (m + 2) <> 0
           in
           let got = Stdx.Sorted_array.filter p a in
           Array.to_list got = List.filter p (Array.to_list a)
           && List.rev !seen = Array.to_list a @ Array.to_list a));
  ]

let zipf_tests =
  [
    Alcotest.test_case "samples stay in range" `Quick (fun () ->
        let z = Stdx.Zipf.create ~n:10 ~s:1.1 in
        let t = Stdx.Prng.create 11 in
        for _ = 1 to 1000 do
          let k = Stdx.Zipf.sample z t in
          Alcotest.(check bool) "range" true (k >= 0 && k < 10)
        done);
    Alcotest.test_case "rank 0 dominates under skew" `Quick (fun () ->
        let z = Stdx.Zipf.create ~n:100 ~s:1.5 in
        let t = Stdx.Prng.create 17 in
        let counts = Array.make 100 0 in
        for _ = 1 to 10000 do
          let k = Stdx.Zipf.sample z t in
          counts.(k) <- counts.(k) + 1
        done;
        Alcotest.(check bool) "head heavier than tail" true
          (counts.(0) > 10 * counts.(99)));
    Alcotest.test_case "s=0 is uniform-ish" `Quick (fun () ->
        let z = Stdx.Zipf.create ~n:4 ~s:0.0 in
        let t = Stdx.Prng.create 23 in
        let counts = Array.make 4 0 in
        for _ = 1 to 8000 do
          let k = Stdx.Zipf.sample z t in
          counts.(k) <- counts.(k) + 1
        done;
        Array.iter
          (fun c ->
            Alcotest.(check bool) "roughly 2000" true (c > 1500 && c < 2500))
          counts);
  ]

let stats_tests =
  [
    Alcotest.test_case "diff subtracts fieldwise" `Quick (fun () ->
        let a = Stdx.Stats.create () in
        a.bytes_scanned <- 10;
        a.index_ops <- 2;
        let b = Stdx.Stats.create () in
        b.bytes_scanned <- 25;
        b.index_ops <- 7;
        let d = Stdx.Stats.diff ~before:a ~after:b in
        Alcotest.(check int) "scanned" 15 d.bytes_scanned;
        Alcotest.(check int) "ops" 5 d.index_ops);
    Alcotest.test_case "reset zeroes" `Quick (fun () ->
        let a = Stdx.Stats.create () in
        a.objects_built <- 4;
        Stdx.Stats.reset a;
        Alcotest.(check int) "zero" 0 a.objects_built);
    Alcotest.test_case "add accumulates" `Quick (fun () ->
        let a = Stdx.Stats.create () and b = Stdx.Stats.create () in
        a.word_lookups <- 1;
        b.word_lookups <- 2;
        Stdx.Stats.add a b;
        Alcotest.(check int) "sum" 3 a.word_lookups);
    (* every field, all values distinct: a field dropped from diff, add
       or pp cannot hide behind an accidental collision *)
    Alcotest.test_case "diff/add/pp cover every field" `Quick (fun () ->
        let fields : (string * (Stdx.Stats.t -> int)) list =
          [
            ("bytes_scanned", fun t -> t.Stdx.Stats.bytes_scanned);
            ("bytes_parsed", fun t -> t.Stdx.Stats.bytes_parsed);
            ("index_ops", fun t -> t.Stdx.Stats.index_ops);
            ("region_comparisons", fun t -> t.Stdx.Stats.region_comparisons);
            ("word_lookups", fun t -> t.Stdx.Stats.word_lookups);
            ("objects_built", fun t -> t.Stdx.Stats.objects_built);
            ("regions_produced", fun t -> t.Stdx.Stats.regions_produced);
            ("cache_hits", fun t -> t.Stdx.Stats.cache_hits);
            ("cache_misses", fun t -> t.Stdx.Stats.cache_misses);
            ("cache_evictions", fun t -> t.Stdx.Stats.cache_evictions);
          ]
        in
        let before =
          {
            Stdx.Stats.bytes_scanned = 1;
            bytes_parsed = 2;
            index_ops = 3;
            region_comparisons = 4;
            word_lookups = 5;
            objects_built = 6;
            regions_produced = 7;
            cache_hits = 8;
            cache_misses = 9;
            cache_evictions = 10;
          }
        in
        let after =
          {
            Stdx.Stats.bytes_scanned = 101;
            bytes_parsed = 203;
            index_ops = 305;
            region_comparisons = 407;
            word_lookups = 509;
            objects_built = 611;
            regions_produced = 713;
            cache_hits = 815;
            cache_misses = 917;
            cache_evictions = 1019;
          }
        in
        let d = Stdx.Stats.diff ~before ~after in
        List.iter
          (fun (name, get) ->
            Alcotest.(check int) ("diff " ^ name) (get after - get before) (get d))
          fields;
        (* deltas are pairwise distinct, so a crossed wire would show *)
        let deltas = List.map (fun (_, get) -> get d) fields in
        Alcotest.(check int) "all deltas distinct"
          (List.length deltas)
          (List.length (List.sort_uniq compare deltas));
        let acc =
          {
            before with Stdx.Stats.bytes_scanned = before.Stdx.Stats.bytes_scanned;
          }
        in
        Stdx.Stats.add acc d;
        List.iter
          (fun (name, get) ->
            Alcotest.(check int) ("add " ^ name) (get after) (get acc))
          fields;
        let contains haystack needle =
          let nh = String.length haystack and nn = String.length needle in
          let rec go i =
            if i + nn > nh then false
            else String.sub haystack i nn = needle || go (i + 1)
          in
          go 0
        in
        let rendered = Format.asprintf "%a" Stdx.Stats.pp d in
        List.iter
          (fun fragment ->
            if not (contains rendered fragment) then
              Alcotest.failf "pp output %S misses %S" rendered fragment)
          [
            "scanned=100B"; "parsed=201B"; "index_ops=302"; "cmps=403";
            "lookups=504"; "objs=605"; "regions=706"; "cache=807h/908m/1009e";
          ]);
    Alcotest.test_case "snapshot reads the registry counters" `Quick
      (fun () ->
        let s0 = Stdx.Stats.snapshot () in
        Stdx.Stats.(incr index_ops);
        Stdx.Stats.(add_to bytes_scanned 17);
        let s1 = Stdx.Stats.snapshot () in
        let d = Stdx.Stats.diff ~before:s0 ~after:s1 in
        Alcotest.(check int) "index_ops" 1 d.Stdx.Stats.index_ops;
        Alcotest.(check int) "bytes_scanned" 17 d.Stdx.Stats.bytes_scanned);
  ]

(* --- fault injection and retry ------------------------------------- *)

let with_faults spec f =
  match Stdx.Fault.parse spec with
  | Error e -> Alcotest.failf "fault spec %S rejected: %s" spec e
  | Ok config ->
      Stdx.Fault.set (Some config);
      Fun.protect ~finally:(fun () -> Stdx.Fault.set None) f

(* how many of [n] visits to [site] inject, resetting nothing *)
let injected_count site n =
  let hits = ref 0 in
  for _ = 1 to n do
    match Stdx.Fault.hit site with
    | () -> ()
    | exception Stdx.Fault.Injected _ -> incr hits
  done;
  !hits

let fault_tests =
  [
    Alcotest.test_case "parse rejects malformed directives" `Quick (fun () ->
        List.iter
          (fun spec ->
            match Stdx.Fault.parse spec with
            | Ok _ -> Alcotest.failf "spec %S should not parse" spec
            | Error _ -> ())
          [
            ""; "transient"; "transient:nope"; "transient:1.5"; "bogus:1";
            "crash:site"; "delay:0.5"; "burst:0"; "seed:x";
          ]);
    Alcotest.test_case "parse accepts the documented forms" `Quick (fun () ->
        List.iter
          (fun spec ->
            match Stdx.Fault.parse spec with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "spec %S rejected: %s" spec e)
          [
            "transient:0.05,seed:42"; "permanent:1.0,only:pool.task";
            "corrupt:0.1,burst:2"; "delay:0.5@3"; "crash:catalog.write@1";
          ]);
    Alcotest.test_case "equal seeds replay equal schedules" `Quick (fun () ->
        let run () =
          with_faults "transient:0.3,seed:9" (fun () -> injected_count "t.site" 200)
        in
        let a = run () and b = run () in
        Alcotest.(check bool) "some injections" true (a > 0 && a < 200);
        Alcotest.(check int) "replayed" a b);
    Alcotest.test_case "burst caps consecutive injections" `Quick (fun () ->
        with_faults "transient:1.0,burst:2,seed:1" (fun () ->
            (* p=1 without the cap would inject every visit; with
               burst:2 every third visit must get through *)
            let consec = ref 0 and worst = ref 0 in
            for _ = 1 to 50 do
              match Stdx.Fault.hit "t.burst" with
              | () -> consec := 0
              | exception Stdx.Fault.Injected _ ->
                  incr consec;
                  if !consec > !worst then worst := !consec
            done;
            Alcotest.(check int) "longest run" 2 !worst));
    Alcotest.test_case "only: restricts the site" `Quick (fun () ->
        with_faults "permanent:1.0,only:t.a" (fun () ->
            Alcotest.(check int) "other site clean" 0 (injected_count "t.b" 50);
            Alcotest.(check bool) "named site injects" true
              (injected_count "t.a" 5 > 0)));
    Alcotest.test_case "corrupting flips one byte under corrupt:1" `Quick
      (fun () ->
        let payload = String.make 64 'x' in
        with_faults "corrupt:1.0" (fun () ->
            let damaged = Stdx.Fault.corrupting "t.c" payload in
            Alcotest.(check bool) "changed" true (damaged <> payload);
            Alcotest.(check int) "same length" (String.length payload)
              (String.length damaged));
        Alcotest.(check string) "disabled is identity" payload
          (Stdx.Fault.corrupting "t.c" payload));
  ]

let quick_policy =
  { Stdx.Retry.attempts = 4; base_delay_ms = 0.01; max_delay_ms = 0.05 }

let retry_tests =
  [
    Alcotest.test_case "classify_exn follows the taxonomy" `Quick (fun () ->
        let k = Stdx.Retry.classify_exn in
        Alcotest.(check bool) "injected transient" true
          (k (Stdx.Fault.Injected { site = "s"; kind = Stdx.Fault.Transient })
          = Stdx.Fault.Transient);
        Alcotest.(check bool) "injected corruption" true
          (k (Stdx.Fault.Injected { site = "s"; kind = Stdx.Fault.Corruption })
          = Stdx.Fault.Corruption);
        Alcotest.(check bool) "sys_error transient" true
          (k (Sys_error "eintr") = Stdx.Fault.Transient);
        Alcotest.(check bool) "anything else permanent" true
          (k (Failure "boom") = Stdx.Fault.Permanent));
    Alcotest.test_case "io masks transients within the budget" `Quick
      (fun () ->
        with_faults "transient:1.0,burst:2,seed:3" (fun () ->
            let calls = ref 0 in
            let v =
              Stdx.Retry.io ~policy:quick_policy ~site:"t.retry" (fun () ->
                  incr calls;
                  Stdx.Fault.hit "t.retry";
                  41 + 1)
            in
            Alcotest.(check int) "value" 42 v;
            Alcotest.(check int) "third try got through" 3 !calls));
    Alcotest.test_case "io re-raises once the budget is spent" `Quick
      (fun () ->
        with_faults "transient:1.0,seed:3" (fun () ->
            let calls = ref 0 in
            match
              Stdx.Retry.io ~policy:quick_policy ~site:"t.spent" (fun () ->
                  incr calls;
                  Stdx.Fault.hit "t.spent")
            with
            | () -> Alcotest.fail "should have raised"
            | exception Stdx.Fault.Injected _ ->
                Alcotest.(check int) "all attempts used"
                  quick_policy.Stdx.Retry.attempts !calls));
    Alcotest.test_case "io does not retry permanent failures" `Quick
      (fun () ->
        with_faults "permanent:1.0,seed:3" (fun () ->
            let calls = ref 0 in
            match
              Stdx.Retry.io ~policy:quick_policy ~site:"t.perm" (fun () ->
                  incr calls;
                  Stdx.Fault.hit "t.perm")
            with
            | () -> Alcotest.fail "should have raised"
            | exception Stdx.Fault.Injected _ ->
                Alcotest.(check int) "single attempt" 1 !calls));
    Alcotest.test_case "backoff schedule has the decorrelated shape" `Quick
      (fun () ->
        let policy =
          { Stdx.Retry.attempts = 6; base_delay_ms = 1.0; max_delay_ms = 8.0 }
        in
        let delays = Stdx.Retry.backoff_schedule ~policy "t.shape" in
        Alcotest.(check int) "one sleep per retry" 5 (List.length delays);
        let prev = ref policy.Stdx.Retry.base_delay_ms in
        List.iter
          (fun d ->
            let hi = Float.min policy.Stdx.Retry.max_delay_ms (3.0 *. !prev) in
            if d < policy.Stdx.Retry.base_delay_ms || d > hi then
              Alcotest.failf "delay %.3f outside [%.3f, %.3f]" d
                policy.Stdx.Retry.base_delay_ms hi;
            prev := d)
          delays;
        Alcotest.(check (list (float 0.)))
          "reproducible" delays
          (Stdx.Retry.backoff_schedule ~policy "t.shape"));
    Alcotest.test_case "breaker opens at the threshold and resets" `Quick
      (fun () ->
        Stdx.Retry.Breaker.reset_all ();
        Fun.protect ~finally:Stdx.Retry.Breaker.reset_all (fun () ->
            let key = "t.breaker" in
            for _ = 1 to Stdx.Retry.Breaker.threshold - 1 do
              Stdx.Retry.Breaker.failure key
            done;
            Alcotest.(check bool) "still closed" true
              (Stdx.Retry.Breaker.state key = Stdx.Retry.Breaker.Closed);
            Stdx.Retry.Breaker.failure key;
            Alcotest.(check bool) "open" true
              (Stdx.Retry.Breaker.state key = Stdx.Retry.Breaker.Open);
            Stdx.Retry.Breaker.success key;
            Alcotest.(check bool) "success closes" true
              (Stdx.Retry.Breaker.state key = Stdx.Retry.Breaker.Closed)));
    Alcotest.test_case "breaker transitions drive the breaker.state gauge"
      `Quick (fun () ->
        Stdx.Retry.Breaker.reset_all ();
        Fun.protect ~finally:Stdx.Retry.Breaker.reset_all (fun () ->
            let key = "t.gauge" in
            let gauge =
              Obs.Metrics.counter
                (Obs.Label.render "breaker.state" [ ("source", key) ])
            in
            (* failures below the threshold never mint a 1 *)
            for _ = 1 to Stdx.Retry.Breaker.threshold - 1 do
              Stdx.Retry.Breaker.failure key
            done;
            Alcotest.(check int) "closed reads 0" 0 (Obs.Metrics.value gauge);
            Stdx.Retry.Breaker.failure key;
            Alcotest.(check int) "open reads 1" 1 (Obs.Metrics.value gauge);
            Stdx.Retry.Breaker.success key;
            Alcotest.(check int) "close resets to 0" 0
              (Obs.Metrics.value gauge)));
  ]

let suites =
  [
    ("stdx.prng", prng_tests);
    ( "stdx.sorted_array",
      sorted_array_units @ List.map QCheck_alcotest.to_alcotest sorted_array_props
    );
    ("stdx.zipf", zipf_tests);
    ("stdx.stats", stats_tests);
    ("stdx.fault", fault_tests);
    ("stdx.retry", retry_tests);
  ]
