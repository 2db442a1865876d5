(* The benchmark's statistics, kept free of I/O so the self-tests in
   test_perfstat.ml can pin them. *)

(* --- percentiles, medians, quartiles ------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* A percentile is only reported when at least this many samples lie
   above it; with fewer, the tail it names was not observed. *)
let min_beyond = 10

(* Nearest-rank percentile [p] (an integer percent) of a sorted array.
   [None] unless [min_beyond] samples lie beyond the rank.  A failed
   request is an infinite sample, so it counts as missing the limit. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then None
  else
    let rank = max 1 (min n (((p * n) + 99) / 100)) in
    if n - rank < min_beyond then None else Some a.(rank - 1)

let median a =
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The three cut points of Python's [statistics.quantiles(data, n=4)]
   (method "exclusive"), the quartiles by which run-to-run spread is
   judged; [invalid_arg] below 2 samples. *)
let quartiles a =
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Perfstat.quartiles: need at least 2 samples";
  let m = ld + 1 in
  List.init 3 (fun i ->
      let i = i + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.)

(* --- metrics ------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* A ratio is emitted together with its base (the denominator) as a
   metric of its own, so no ratio is ever printed without it.  An
   empty base gives 0. *)
let ratio ~name ~base_name ~num ~den =
  [
    metric name "ratio" (if den = 0. then 0. else num /. den);
    metric base_name "count" den;
  ]

(* --- the daemon's [stats] payload ---------------------------------- *)

let counters_of_stats payload =
  match Obs.Jsonx.member "counters" payload with
  | Some (Obs.Jsonx.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun f -> (k, f)) (Obs.Jsonx.num v))
        kvs
  | _ -> []

(* Per-counter change between two [stats] payloads.  A counter absent
   before counts from 0; one that went down was reset in between, so
   its whole [after] value is the change. *)
let diff_counters ~before ~after =
  let b = counters_of_stats before in
  List.map
    (fun (k, a) ->
      let d =
        match List.assoc_opt k b with
        | Some v when v <= a -> a -. v
        | Some _ | None -> a
      in
      (k, d))
    (counters_of_stats after)

let counter diff name = Option.value ~default:0. (List.assoc_opt name diff)

(* A field ("count", "p50", "p95", "p99", "max") of one histogram. *)
let histogram_field payload name field =
  Option.bind (Obs.Jsonx.member "histograms" payload) (fun h ->
      Option.bind (Obs.Jsonx.member name h) (fun s ->
          Option.bind (Obs.Jsonx.member field s) Obs.Jsonx.num))

(* --- span aggregation ---------------------------------------------- *)

(* Spans are folded into per-name totals as they close: count, total
   and self time (duration minus the part its children cover), plus
   the sums of numeric end attributes.  Pool workers root their spans
   at 0, so totals are per layer name, not per request.  Connection
   threads of the daemon share one span stack, so a span can appear
   nested under a concurrent request's span of the same name; such a
   child is not subtracted, which keeps the per-name totals exact. *)

type totals = {
  mutable count : int;
  mutable total_ms : float;
  mutable self_ms : float;
  sums : (string, float) Hashtbl.t;
}

type open_span = {
  o_name : string;
  o_parent : int;
  o_start : float;
  mutable o_child_ms : float;
}

type spans = {
  open_ : (int, open_span) Hashtbl.t;
  by_name : (string, totals) Hashtbl.t;
}

let spans () = { open_ = Hashtbl.create 64; by_name = Hashtbl.create 32 }

let span_begin s ~id ~parent ~name ~ts =
  Hashtbl.replace s.open_ id
    { o_name = name; o_parent = parent; o_start = ts; o_child_ms = 0. }

(* [attrs] are the numeric end attributes; "(abandoned)" ends, which a
   concurrent thread's pop emits for a span still running, are ignored:
   the span's own end follows. *)
let span_end s ~id ~name ~ts ~attrs =
  if name <> "(abandoned)" then
    match Hashtbl.find_opt s.open_ id with
    | None -> ()
    | Some o ->
        Hashtbl.remove s.open_ id;
        let dur = ts -. o.o_start in
        let t =
          match Hashtbl.find_opt s.by_name o.o_name with
          | Some t -> t
          | None ->
              let t =
                { count = 0; total_ms = 0.; self_ms = 0.; sums = Hashtbl.create 4 }
              in
              Hashtbl.replace s.by_name o.o_name t;
              t
        in
        t.count <- t.count + 1;
        t.total_ms <- t.total_ms +. dur;
        t.self_ms <- t.self_ms +. (dur -. o.o_child_ms);
        List.iter
          (fun (k, v) ->
            Hashtbl.replace t.sums k
              (v +. Option.value ~default:0. (Hashtbl.find_opt t.sums k)))
          attrs;
        (match Hashtbl.find_opt s.open_ o.o_parent with
        | Some p when p.o_name <> o.o_name -> p.o_child_ms <- p.o_child_ms +. dur
        | _ -> ())

let find_totals s name = Hashtbl.find_opt s.by_name name

(* Totals of every span whose name starts with [prefix]. *)
let totals_with_prefix s prefix =
  let n = String.length prefix in
  Hashtbl.fold
    (fun name t acc ->
      if String.length name >= n && String.sub name 0 n = prefix then t :: acc
      else acc)
    s.by_name []

(* One line per span name: [name count total_ms self_ms k=v...] — the
   on-disk form the daemon writes when a traced phase ends.  Blanks in a
   name (an operator label with a quoted phrase) become '_'. *)
let render_spans s =
  let names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) s.by_name []) in
  String.concat ""
    (List.map
       (fun name ->
         let t = Hashtbl.find s.by_name name in
         let sums =
           List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.sums [])
         in
         let blank c = c = ' ' || c = '\n' || c = '\t' in
         Printf.sprintf "%s %d %.17g %.17g%s\n"
           (String.map (fun c -> if blank c then '_' else c) name)
           t.count t.total_ms t.self_ms
           (String.concat ""
              (List.map (fun (k, v) -> Printf.sprintf " %s=%.17g" k v) sums)))
       names)

let parse_spans text =
  let s = spans () in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | name :: count :: total :: self :: rest ->
          let sums = Hashtbl.create 4 in
          List.iter
            (fun kv ->
              match String.index_opt kv '=' with
              | Some i ->
                  Hashtbl.replace sums (String.sub kv 0 i)
                    (float_of_string
                       (String.sub kv (i + 1) (String.length kv - i - 1)))
              | None -> ())
            rest;
          Hashtbl.replace s.by_name name
            {
              count = int_of_string count;
              total_ms = float_of_string total;
              self_ms = float_of_string self;
              sums;
            }
      | _ -> ())
    (String.split_on_char '\n' text);
  s

(* --- the result line ----------------------------------------------- *)

let json_number f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.name
              (json_number m.value) m.unit)
          metrics))
