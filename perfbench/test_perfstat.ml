(* Self-tests of the benchmark's statistics. *)

let a xs = Perfstat.sorted (List.map float_of_int xs)
let floats = Alcotest.(list (float 1e-9))
let opt = Alcotest.(option (float 1e-9))

let percentile_needs_ten_beyond () =
  (* p50 of 19 samples leaves 9 beyond it: not reported; of 20, 10 *)
  Alcotest.check opt "19 samples" None
    (Perfstat.percentile (a (List.init 19 succ)) 50);
  Alcotest.check opt "20 samples" (Some 10.)
    (Perfstat.percentile (a (List.init 20 succ)) 50);
  (* p99 needs 1000 samples; p90 needs 100 *)
  Alcotest.check opt "p99 of 999" None
    (Perfstat.percentile (a (List.init 999 succ)) 99);
  Alcotest.check opt "p99 of 1000" (Some 990.)
    (Perfstat.percentile (a (List.init 1000 succ)) 99);
  Alcotest.check opt "p90 of 100" (Some 90.)
    (Perfstat.percentile (a (List.init 100 succ)) 90);
  Alcotest.check opt "empty" None (Perfstat.percentile [||] 50)

let failures_miss_the_limit () =
  (* a failed request is an infinite sample: it sits at the top *)
  let xs = List.init 30 (fun i -> float_of_int (i + 1)) @ [ infinity; infinity ] in
  Alcotest.check opt "p50 ignores nothing" (Some 16.)
    (Perfstat.percentile (Perfstat.sorted xs) 50);
  let all_failed = Perfstat.sorted (List.init 40 (fun _ -> infinity)) in
  Alcotest.(check bool) "p50 of failures is infinite" true
    (Perfstat.percentile all_failed 50 = Some infinity)

let median_and_quartiles () =
  Alcotest.(check (float 1e-9)) "odd" 3. (Perfstat.median (a [ 5; 1; 3 ]));
  Alcotest.(check (float 1e-9)) "even" 2.5 (Perfstat.median (a [ 4; 1; 3; 2 ]));
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Perfstat.median [||]));
  (* the values Python's statistics.quantiles(data, n=4) gives *)
  Alcotest.check floats "1..10" [ 2.75; 5.5; 8.25 ]
    (Perfstat.quartiles (a (List.init 10 succ)));
  Alcotest.check floats "1..4" [ 1.25; 2.5; 3.75 ]
    (Perfstat.quartiles (a [ 1; 2; 3; 4 ]));
  Alcotest.check floats "two, extrapolated" [ 0.75; 1.5; 2.25 ]
    (Perfstat.quartiles (a [ 1; 2 ]));
  Alcotest.check floats "uneven" [ 2.; 4.; 8. ]
    (Perfstat.quartiles (a [ 1; 2; 3; 4; 5; 8; 9 ]))

let ratios_carry_their_base () =
  let ms = Perfstat.ratio ~name:"x.hit_ratio" ~base_name:"x.probes" ~num:3. ~den:4. in
  Alcotest.(check (list string)) "names" [ "x.hit_ratio"; "x.probes" ]
    (List.map (fun (m : Perfstat.metric) -> m.name) ms);
  Alcotest.check floats "values" [ 0.75; 4. ]
    (List.map (fun (m : Perfstat.metric) -> m.value) ms);
  let empty = Perfstat.ratio ~name:"r" ~base_name:"b" ~num:0. ~den:0. in
  Alcotest.check floats "empty base" [ 0.; 0. ]
    (List.map (fun (m : Perfstat.metric) -> m.value) empty)

let stats_payload counters =
  Obs.Jsonx.Obj
    [
      ( "counters",
        Obs.Jsonx.Obj (List.map (fun (k, v) -> (k, Obs.Jsonx.Num v)) counters) );
      ( "histograms",
        Obs.Jsonx.Obj
          [
            ( "lat",
              Obs.Jsonx.Obj
                [ ("count", Obs.Jsonx.Num 3.); ("p50", Obs.Jsonx.Num 1.5) ] );
          ] );
    ]

let counter_diff () =
  let before = stats_payload [ ("a", 10.); ("b", 5.); ("gone", 1.) ] in
  let after = stats_payload [ ("a", 15.); ("b", 2.); ("new", 7.) ] in
  let d = Perfstat.diff_counters ~before ~after in
  Alcotest.(check (float 1e-9)) "grew" 5. (Perfstat.counter d "a");
  Alcotest.(check (float 1e-9)) "reset in between" 2. (Perfstat.counter d "b");
  Alcotest.(check (float 1e-9)) "new counter" 7. (Perfstat.counter d "new");
  Alcotest.(check (float 1e-9)) "absent after" 0. (Perfstat.counter d "gone");
  Alcotest.check opt "histogram field" (Some 1.5)
    (Perfstat.histogram_field after "lat" "p50");
  Alcotest.check opt "missing histogram" None
    (Perfstat.histogram_field after "nope" "p50")

let span_self_times () =
  let s = Perfstat.spans () in
  (* root 1 [0,10] with child 2 [1,4]; 2 has child 3 [2,3] *)
  Perfstat.span_begin s ~id:1 ~parent:0 ~name:"req" ~ts:0.;
  Perfstat.span_begin s ~id:2 ~parent:1 ~name:"load" ~ts:1.;
  Perfstat.span_begin s ~id:3 ~parent:2 ~name:"parse" ~ts:2.;
  Perfstat.span_end s ~id:3 ~name:"parse" ~ts:3. ~attrs:[ ("bytes", 7.) ];
  Perfstat.span_end s ~id:2 ~name:"load" ~ts:4. ~attrs:[];
  (* a concurrent request nested by the shared stack, with an early
     "(abandoned)" end that must not close it *)
  Perfstat.span_begin s ~id:4 ~parent:1 ~name:"req" ~ts:5.;
  Perfstat.span_end s ~id:4 ~name:"(abandoned)" ~ts:6. ~attrs:[];
  Perfstat.span_end s ~id:1 ~name:"req" ~ts:10. ~attrs:[];
  Perfstat.span_begin s ~id:5 ~parent:0 ~name:{|eval.σ["a b"]|} ~ts:0.;
  Perfstat.span_end s ~id:5 ~name:{|eval.σ["a b"]|} ~ts:1. ~attrs:[];
  Perfstat.span_end s ~id:4 ~name:"req" ~ts:12. ~attrs:[];
  let get name = Option.get (Perfstat.find_totals s name) in
  Alcotest.(check (float 1e-9)) "req total" 17. (get "req").total_ms;
  Alcotest.(check (float 1e-9)) "req self" 14. (get "req").self_ms;
  Alcotest.(check int) "req count" 2 (get "req").count;
  Alcotest.(check (float 1e-9)) "load self" 2. (get "load").self_ms;
  Alcotest.(check (float 1e-9)) "parse bytes" 7.
    (Hashtbl.find (get "parse").sums "bytes");
  (* the on-disk form round-trips *)
  let back = Perfstat.parse_spans (Perfstat.render_spans s) in
  Alcotest.(check (float 1e-9)) "round trip" 14.
    (Option.get (Perfstat.find_totals back "req")).self_ms;
  Alcotest.(check bool) "blank in a name" true
    (Perfstat.find_totals back {|eval.σ["a_b"]|} <> None);
  Alcotest.(check (float 1e-9)) "round trip sums" 7.
    (Hashtbl.find (Option.get (Perfstat.find_totals back "parse")).sums "bytes")

let result_line () =
  Alcotest.(check string) "json"
    {|{"correct": true, "attempted": 2, "failed": 0, "metrics": {"x": {"value": 1.5, "unit": "ms"}, "y": {"value": null, "unit": "s"}}}|}
    (Perfstat.result_line ~correct:true ~attempted:2 ~failed:0
       [ Perfstat.metric "x" "ms" 1.5; Perfstat.metric "y" "s" infinity ])

let () =
  Alcotest.run "perfstat"
    [
      ( "percentiles",
        [
          Alcotest.test_case "ten samples beyond" `Quick percentile_needs_ten_beyond;
          Alcotest.test_case "failures miss the limit" `Quick failures_miss_the_limit;
          Alcotest.test_case "median and quartiles" `Quick median_and_quartiles;
        ] );
      ( "ratios",
        [ Alcotest.test_case "carry their base" `Quick ratios_carry_their_base ] );
      ( "daemon",
        [
          Alcotest.test_case "stats counter diff" `Quick counter_diff;
          Alcotest.test_case "span self times" `Quick span_self_times;
        ] );
      ("output", [ Alcotest.test_case "result line" `Quick result_line ]);
    ]
