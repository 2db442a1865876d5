(* Inputs of every workload, derived from the seed alone.  The program
   under test receives only the files written from these texts and the
   query texts. *)

(* --- corpora ------------------------------------------------------- *)

let bibtex_files ~seed ~files ~refs =
  List.init files (fun i ->
      ( Printf.sprintf "lib%02d.bib" i,
        Workload.Bibtex_gen.generate
          { (Workload.Bibtex_gen.with_size refs) with seed = (seed * 7919) + i } ))

let log_files ~seed ~files ~entries =
  List.init files (fun i ->
      ( Printf.sprintf "node%02d.log" i,
        Workload.Log_gen.generate
          { (Workload.Log_gen.with_size entries) with seed = (seed * 7919) + i } ))

(* --- lookup: distinct bibtex lookups ------------------------------- *)

(* Zipf weight of a vocabulary rank, with the bibtex generator's skew. *)
let zipf_weight rank =
  1. /. (float_of_int (rank + 1) ** Workload.Bibtex_gen.default.zipf_s)

let names = Workload.Bibtex_gen.default.name_pool
let n_keywords = 40 (* the generator's keyword pool *)
let years = List.init 40 (fun i -> 1960 + i)

(* A weighted random permutation (Efraimidis–Spirakis keys): every item
   appears once, and heavy (frequent, so unselective) items tend to
   come early. *)
let weighted_order prng items =
  let keyed =
    List.map
      (fun (w, x) ->
        let u = Stdx.Prng.float prng 1. +. 1e-12 in
        (-.log u /. w, x))
      items
  in
  List.map snd (List.sort (fun (a, _) (b, _) -> Float.compare a b) keyed)

let product xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

let ranks n = List.init n Fun.id

(* Each class has its own select list and a fixed number of conjuncts,
   and no two texts of a class share their conjunct set, so no text is
   contained in another: the result cache can answer none of them. *)
let lookup_classes prng =
  let last r = Workload.Vocab.last_name r and kw r = Workload.Vocab.keyword r in
  let author_year =
    List.map
      (fun (a, y) ->
        ( zipf_weight a,
          Printf.sprintf
            {|SELECT r.Title FROM References r WHERE r.Authors.Name.Last_Name = "%s" AND r.Year = "%d"|}
            (last a) y ))
      (product (ranks names) years)
  in
  let keyword_editor =
    List.map
      (fun (k, e) ->
        ( zipf_weight k *. zipf_weight e,
          Printf.sprintf
            {|SELECT r.Key, r.Year FROM References r WHERE r.Keywords.Keyword = "%s" AND r.Editors.Name.Last_Name = "%s"|}
            (kw k) (last e) ))
      (product (ranks n_keywords) (ranks names))
  in
  let author_keyword =
    List.map
      (fun (a, k) ->
        ( zipf_weight a *. zipf_weight k,
          Printf.sprintf
            {|SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "%s" AND r.Keywords.Keyword = "%s"|}
            (last a) (kw k) ))
      (product (ranks names) (ranks n_keywords))
  in
  let single =
    List.map
      (fun a ->
        ( zipf_weight a,
          Printf.sprintf
            {|SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = "%s"|}
            (last a) ))
      (ranks names)
    @ List.map
        (fun k ->
          ( zipf_weight k,
            Printf.sprintf
              {|SELECT r.Key FROM References r WHERE r.Keywords.Keyword = "%s"|}
              (kw k) ))
        (ranks n_keywords)
    @ List.map
        (fun y ->
          ( 1.,
            Printf.sprintf {|SELECT r.Key FROM References r WHERE r.Year = "%d"|} y ))
        years
  in
  let join =
    List.map
      (fun (y1, y2) ->
        ( 1.,
          Printf.sprintf
            {|SELECT r.Key FROM References r, References s WHERE r.Editors.Name.Last_Name = s.Authors.Name.Last_Name AND r.Year = "%d" AND s.Year = "%d"|}
            y1 y2 ))
      (product years years)
  in
  (* (share of requests, texts in order).  A join takes about three
     times the median request; with a share near 10% the joins alone
     would decide where p90 falls from run to run. *)
  [
    (30, weighted_order prng author_year);
    (30, weighted_order prng keyword_editor);
    (33, weighted_order prng author_keyword);
    (5, weighted_order prng single);
    (2, weighted_order prng join);
  ]

(* An endless-until-exhausted stream of distinct lookup texts: each
   request picks a class by its share, then takes that class's next
   text. *)
type lookup = { prng : Stdx.Prng.t; classes : (int * string list ref) list }

let lookup ~seed =
  let prng = Stdx.Prng.create (seed + 104729) in
  { prng; classes = List.map (fun (w, l) -> (w, ref l)) (lookup_classes prng) }

let rec next_lookup g =
  let live = List.filter (fun (_, l) -> !l <> []) g.classes in
  match live with
  | [] -> None
  | _ -> (
      let total = List.fold_left (fun acc (w, _) -> acc + w) 0 live in
      let pick = Stdx.Prng.int g.prng total in
      let rec choose acc = function
        | [] -> assert false
        | (w, l) :: rest -> if pick < acc + w then l else choose (acc + w) rest
      in
      let l = choose 0 live in
      match !l with
      | [] -> next_lookup g
      | x :: rest ->
          l := rest;
          Some x)

(* --- hot: a fixed, Zipf-skewed mix of log queries ------------------ *)

(* Broad sweeps first (the most popular ranks), then their conjunct
   refinements: whole-entry refinements can be answered from a cached
   sweep by containment, projected ones only by an exact hit. *)
let hot_texts =
  let levels = [ "ERROR"; "WARN" ] in
  let services = List.init 5 Workload.Vocab.service in
  let words = [ "index"; "region"; "query"; "file"; "parser" ] in
  let whole_sweep l = Printf.sprintf {|SELECT e FROM Entries e WHERE e.Level = "%s"|} l in
  let msg_sweep l =
    Printf.sprintf {|SELECT e.Message FROM Entries e WHERE e.Level = "%s"|} l
  in
  List.map whole_sweep levels
  @ List.map msg_sweep levels
  @ List.map
      (fun s ->
        Printf.sprintf {|SELECT e.Timestamp FROM Entries e WHERE e.Service = "%s"|} s)
      services
  @ List.map
      (fun (l, s) ->
        Printf.sprintf
          {|SELECT e FROM Entries e WHERE e.Level = "%s" AND e.Service = "%s"|} l s)
      (product levels services)
  @ List.map
      (fun (l, s) ->
        Printf.sprintf
          {|SELECT e.Message FROM Entries e WHERE e.Level = "%s" AND e.Service = "%s"|}
          l s)
      (product levels services)
  @ List.map
      (fun (l, w) ->
        Printf.sprintf
          {|SELECT e FROM Entries e WHERE e.Level = "%s" AND e.Message CONTAINS "%s"|}
          l w)
      (product levels words)

let hot_zipf = Stdx.Zipf.create ~n:(List.length hot_texts) ~s:1.0

(* --- markers: appended entries whose arrival a query can time ------ *)

(* A marker is an entry whose one projected value is "marker mK": [entry
   k] is the text appended to a source and [query] answers every marker
   of its kind.  [ingest] appends log markers under a service of its
   own for each phase (0 untraced, 1 traced), so that both phases see
   answers of the same sizes; the freshness probe of the other
   workloads uses phase 2 on logs and the bibtex markers. *)
type markers = { query : string; entry : int -> string }

let marker_text k = Printf.sprintf "marker m%d" k

let log_markers phase =
  let service = Printf.sprintf "marker%d" phase in
  {
    query =
      Printf.sprintf {|SELECT e.Message FROM Entries e WHERE e.Service = "%s"|} service;
    entry =
      (fun k ->
        Printf.sprintf "[2026-07-05 %02d:%02d:%02d] level=INFO service=%s msg=\"%s\"\n"
          (k / 3600 mod 24) (k / 60 mod 60) (k mod 60) service (marker_text k));
  }

(* Year 2026 and the name "Probe Marker" lie outside the generator's
   vocabulary, so no lookup text matches a marker. *)
let bibtex_markers =
  {
    query =
      {|SELECT r.Title FROM References r WHERE r.Authors.Name.Last_Name = "Marker"|};
    entry =
      (fun k ->
        Printf.sprintf
          "@INCOLLECTION{Marker%d, AUTHOR = {Probe Marker},\n  TITLE = {%s},\n\
          \  YEAR = {2026},\n  EDITOR = {Probe Marker},\n  KEYWORDS = {marker},\n\
          \  CITES = {Ref0000},\n  ABSTRACT = {marker}}\n"
          k (marker_text k));
  }
