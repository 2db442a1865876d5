(* The repository benchmark: one command that generates the corpora
   from a seed, builds the catalog, drives an [oqf serve] daemon and
   the real [oqf catalog query] binary, checks every answer, and prints
   each metric by name and unit.  See README.md beside this file for
   the workloads, the metrics and what moves them.

     oqfbench.exe --workload lookup|hot|cold|ingest --seed N
                  --seconds S --trace 0|1

   The last line of standard output is the JSON result.  The same
   executable also runs the daemon ([--daemon], see Daemon) and the
   query-process launcher ([--launch]). *)

module Catalog = Oqf_catalog.Catalog
module P = Serve.Protocol

let now_ms = Obs.Trace.now_ms

exception Bench_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bench_error s)) fmt
let ok_or what = function Ok x -> x | Error e -> fail "%s: %s" what e

(* --- sizes --------------------------------------------------------- *)

(* The lookup catalog fits the daemon's 64 MiB instance cache.  The
   cold one is a single file: the index load with its suffix-array
   rebuild is then most of a cold request, and a 10-second run still
   holds well over the 100 requests p90 needs. *)
let lookup_files = 6
let lookup_refs = 700
let cold_files = 1
let cold_refs = 600
let hot_files = 4
let hot_entries = 1500
(* the fewest requests p90 can be reported from; a cold run that is
   slow to reach them measures longer than [--seconds] *)
let cold_min_requests = 100
let ingest_files = 4
let ingest_entries = 1500

(* Set-up is timed again and again: [setup_budget_s] of set-ups before
   the measured loop and as much after it. *)
let setup_budget_s = 3.

(* Freshness outside ingest: markers appended one at a time after the
   measured loop. *)
let freshness_probes = 30

(* ingest: one marker entry appended every [append_every_ms] *)
let append_every_ms = 100.

(* lookup and cold: every [oracle_stride]-th request (from a seeded
   offset) is checked against the full-parse baseline on every file *)
let oracle_stride ~cold = if cold then 10 else 100
let oracle_max = 12

(* --- files --------------------------------------------------------- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let rec du path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left
        (fun acc f -> acc + du (Filename.concat path f))
        0 (Sys.readdir path)
  | _ -> (Unix.lstat path).Unix.st_size

let file_size path = (Unix.stat path).Unix.st_size

(* --- host and build ------------------------------------------------ *)

let nproc = Domain.recommended_domain_count ()
let conns = min 2 nproc

let host_lines ~workload ~seed =
  let c = Daemon.config ~catalog_dir:"-" ~socket:"-" in
  [
    Printf.sprintf "# host nproc=%d ocaml=%s profile=%s%s workload=%s seed=%d"
      nproc Sys.ocaml_version Build_info.profile
      (if Build_info.profile = "release" then "" else " (NOT RELEASE)")
      workload seed;
    Printf.sprintf
      "# daemon Server.default_config jobs=%d max_active=%d max_queue=%d \
       default_timeout_ms=%s fail_policy=%s drain_ms=%g watch=%b"
      c.jobs c.max_active c.max_queue
      (match c.default_timeout_ms with None -> "none" | Some t -> string_of_float t)
      (Exec.Driver.fail_policy_to_string c.default_fail_policy)
      c.drain_ms c.watch;
  ]

(* --- requests over the socket -------------------------------------- *)

type answer = {
  rows : (string * string list) list;  (** arrival order; kept on request *)
  n_rows : int;
  digest : string;  (** of every row in arrival order *)
}

type sample = { lat_ms : float; first_row_ms : float option; ok : bool }

let query_req schema text =
  P.Query
    { schema; text; timeout_ms = None; fail_policy = None; force = false; workload = "" }

(* Send one query; [on_row] sees each row with its arrival time. *)
let send conn ~schema ~keep ?(on_row = fun _ _ _ -> ()) text =
  let t0 = now_ms () in
  let first = ref None and n = ref 0 and rows = ref [] in
  let buf = Buffer.create 1024 in
  let on_event = function
    | P.Row { file; values; _ } ->
        let t = now_ms () in
        if !first = None then first := Some (t -. t0);
        incr n;
        Buffer.add_string buf file;
        List.iter
          (fun v ->
            Buffer.add_char buf '\001';
            Buffer.add_string buf v)
          values;
        Buffer.add_char buf '\n';
        if keep then rows := (file, values) :: !rows;
        on_row t file values
    | _ -> ()
  in
  let result =
    match Serve.Client.stream conn (query_req schema text) ~on_event with
    | Ok (P.Done { rows = count; degraded = []; _ }) when count = !n ->
        Ok
          {
            rows = List.rev !rows;
            n_rows = !n;
            digest = Digest.to_hex (Digest.string (Buffer.contents buf));
          }
    | Ok (P.Done { degraded = _ :: _; _ }) -> Error "degraded answer"
    | Ok (P.Done _) -> Error "row count differs from the done event"
    | Ok ev -> Error (P.render_response ev)
    | Error e -> Error ("transport: " ^ e)
  in
  (now_ms () -. t0, !first, result)

let with_conn socket f =
  let c = ok_or "connect" (Serve.Client.connect ~wait_ms:30000. socket) in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let stats socket =
  with_conn socket (fun c ->
      match Serve.Client.request c P.Stats with
      | Ok evs -> (
          match List.rev evs with
          | P.Stats_reply { payload; _ } :: _ -> payload
          | _ -> fail "stats: no stats reply")
      | Error e -> fail "stats: %s" e)

(* Daemon start ends at the first pong.  [Client.connect ~wait_ms]
   retries every 20 ms, too coarse for a set-up time, so retry here
   every millisecond. *)
let ping socket =
  let deadline = now_ms () +. 30000. in
  let rec connect () =
    match Serve.Client.connect socket with
    | Ok c -> c
    | Error e when now_ms () > deadline -> fail "connect: %s" e
    | Error _ ->
        Unix.sleepf 0.001;
        connect ()
  in
  let c = connect () in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  match Serve.Client.request c P.Ping with
  | Ok [ P.Pong _ ] -> ()
  | _ -> fail "ping: no pong"

(* A job is one request: its text, whether to keep its rows, a row
   hook, and a check run on its answer (false = wrong answer). *)
type job = {
  text : string;
  keep : bool;
  on_row : float -> string -> string list -> unit;
  check : answer -> bool;
}

let job ?(keep = false) ?(on_row = fun _ _ _ -> ()) ?(check = fun _ -> true) text =
  { text; keep; on_row; check }

let errors = ref []

let errors_lock = Mutex.create ()

let note_error msg =
  Mutex.protect errors_lock (fun () ->
      if List.length !errors < 5 then errors := msg :: !errors)

(* [conns] connections in a closed loop for [seconds]; [next] (called
   under a lock) hands out jobs until it returns [None].  Returns the
   samples and the wall-clock seconds until the last answer. *)
let closed_loop ~socket ~schema ~conns ~seconds ~next =
  let lock = Mutex.create () in
  let next () = Mutex.protect lock next in
  let t0 = now_ms () in
  let deadline = t0 +. (seconds *. 1000.) in
  let out = Array.make conns [] in
  let worker i =
    with_conn socket (fun c ->
        let rec loop acc =
          if now_ms () >= deadline then acc
          else
            match next () with
            | None -> acc
            | Some j ->
                let lat, first, r = send c ~schema ~keep:j.keep ~on_row:j.on_row j.text in
                let ok =
                  match r with
                  | Ok a ->
                      j.check a
                      || (note_error ("wrong answer: " ^ j.text); false)
                  | Error e ->
                      note_error (e ^ ": " ^ j.text);
                      false
                in
                loop
                  ({ lat_ms = (if ok then lat else infinity); first_row_ms = first; ok }
                  :: acc)
        in
        out.(i) <- loop [])
  in
  List.iter Thread.join (List.init conns (fun i -> Thread.create worker i));
  (List.concat (Array.to_list out), (now_ms () -. t0) /. 1000.)

(* --- set-up -------------------------------------------------------- *)

type setup = {
  catdir : string;
  sources : string list;
  daemon : Daemon.t option;
  seconds : float;
}

(* Catalog init, [Catalog.add] of every file and, for the daemon
   workloads, daemon start up to the first pong.  Writing the sources
   is not counted. *)
let setup_once ~dir ~schema ~files ~daemon =
  let src_dir = Filename.concat dir "src" in
  mkdir_p src_dir;
  let sources =
    List.map
      (fun (name, text) ->
        let p = Filename.concat src_dir name in
        write_file p text;
        p)
      files
  in
  let catdir = Filename.concat dir "cat" in
  let t0 = now_ms () in
  let cat = ok_or "catalog init" (Catalog.init catdir) in
  List.iter
    (fun p -> ignore (ok_or ("catalog add " ^ p) (Catalog.add cat ~schema p)))
    sources;
  let daemon =
    if daemon then begin
      let d = Daemon.spawn ~catalog_dir:catdir ~socket:(Filename.concat dir "d.sock") in
      ping d.Daemon.socket;
      Some d
    end
    else None
  in
  { catdir; sources; daemon; seconds = (now_ms () -. t0) /. 1000. }

(* Throwaway set-ups in fresh directories, repeated until [budget_s]
   of set-up time has passed; their times. *)
let setup_times ~work ~tag ~schema ~files ~daemon ~budget_s =
  let rec go k spent acc =
    if spent >= budget_s then acc
    else begin
      let dir = Filename.concat work (Printf.sprintf "%s%d" tag k) in
      let s = setup_once ~dir ~schema ~files ~daemon in
      Option.iter Daemon.stop s.daemon;
      rm_rf dir;
      go (k + 1) (spent +. s.seconds) (s.seconds :: acc)
    end
  in
  go 0 0. []

(* --- the full-parse oracle ----------------------------------------- *)

let view_of schema = ok_or "schema" (Oqf_catalog.Schemas.find_result schema)

let oracle_rows ~schema ~texts text =
  let q = Odb.Query_parser.parse_exn text in
  List.concat_map
    (fun (file, t) ->
      let rows, _ =
        ok_or "run_baseline" (Oqf.Execute.run_baseline (view_of schema) t q)
      in
      List.map (fun row -> (file, List.map Odb.Value.to_display_string row)) rows)
    texts

let load_texts sources = List.map (fun p -> (p, Pat.Text.of_file p)) sources

(* --- per-layer probes from the benchmark process ------------------- *)

let with_spans f =
  let spans = Perfstat.spans () in
  Obs.Trace.set_sink (Some (Daemon.memory_sink spans));
  Fun.protect ~finally:(fun () -> Obs.Trace.set_sink None) f;
  spans

(* Catalog open, a cold load of every instance (the catalog.load
   spans), and the pat layer timed by calling into it directly: the
   index load (which rebuilds the suffix array) and the word-index
   build on its own.  Medians of three passes. *)
let catalog_probe ~schema ~catdir ~sources =
  let passes =
    List.init 3 (fun _ ->
        let t0 = now_ms () in
        let cat = ok_or "open_dir" (Catalog.open_dir catdir) in
        let open_ms = now_ms () -. t0 in
        let spans =
          with_spans (fun () ->
              ignore (ok_or "of_catalog" (Oqf.Corpus.of_catalog cat ~schema)))
        in
        let load_ms =
          match Perfstat.find_totals spans "catalog.load" with
          | Some t -> t.total_ms
          | None -> 0.
        in
        let index_files =
          List.map
            (fun (e : Catalog.entry) -> Filename.concat catdir e.index_file)
            (Catalog.entries cat)
        in
        let t1 = now_ms () in
        List.iter (fun path -> ignore (Pat.Index_store.load_result ~path)) index_files;
        let index_load_ms = now_ms () -. t1 in
        let texts = List.map Pat.Text.of_file sources in
        let t2 = now_ms () in
        List.iter (fun t -> ignore (Pat.Word_index.build t)) texts;
        let word_ms = now_ms () -. t2 in
        let bytes = List.fold_left (fun acc p -> acc + file_size p) 0 index_files in
        (open_ms, load_ms, index_load_ms, word_ms, float_of_int bytes))
  in
  let med f = Perfstat.median (Perfstat.sorted (List.map f passes)) in
  Perfstat.
    [
      metric "catalog.open_ms" "ms" (med (fun (a, _, _, _, _) -> a));
      metric "catalog.load_ms" "ms" (med (fun (_, b, _, _, _) -> b));
      metric "pat.index_load_ms" "ms" (med (fun (_, _, c, _, _) -> c));
      metric "pat.word_index_build_ms" "ms" (med (fun (_, _, _, d, _) -> d));
      metric "pat.index_bytes" "bytes" (med (fun (_, _, _, _, e) -> e));
    ]

let cli_exe () =
  let p =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/oqf_cli.exe"
  in
  if Sys.file_exists p then p else fail "oqf_cli.exe not found at %s" p

let cli_start_ms cli =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let times =
    List.init 21 (fun _ ->
        let t0 = now_ms () in
        let pid =
          Unix.create_process cli [| cli; "--version" |] Unix.stdin devnull devnull
        in
        ignore (Unix.waitpid [] pid);
        now_ms () -. t0)
  in
  Unix.close devnull;
  Perfstat.median (Perfstat.sorted times)

(* --- phases -------------------------------------------------------- *)

type phase = {
  samples : sample list;
  wall_s : float;
  before : Obs.Jsonx.t;  (** daemon stats when the phase started *)
  after : Obs.Jsonx.t;
  spans : Perfstat.spans option;  (** traced phases only *)
}

let daemon_phase ~work (d : Daemon.t) ~schema ~traced ~seconds ~conns ~next =
  Daemon.command d "reset";
  if traced then Daemon.command d "trace on";
  let before = stats d.socket in
  let samples, wall_s = closed_loop ~socket:d.socket ~schema ~conns ~seconds ~next in
  let after = stats d.socket in
  let spans =
    if traced then begin
      let spans_path = Filename.concat work "spans.txt" in
      Daemon.command d ("trace off " ^ spans_path);
      Some
        (Perfstat.parse_spans
           (In_channel.with_open_bin spans_path In_channel.input_all))
    end
    else None
  in
  { samples; wall_s; before; after; spans }

let latencies p = Perfstat.sorted (List.map (fun s -> s.lat_ms) p.samples)

let pct name p pc =
  match Perfstat.percentile (latencies p) pc with
  | Some v -> v
  | None ->
      fail "%s: %d samples are too few for p%d" name (List.length p.samples) pc

let first_row_p50 p =
  let firsts =
    List.filter_map (fun s -> if s.ok then s.first_row_ms else None) p.samples
  in
  match Perfstat.percentile (Perfstat.sorted firsts) 50 with
  | Some v -> v
  | None -> fail "first_row_p50_ms: %d answers with rows are too few" (List.length firsts)

let ok_count p = List.length (List.filter (fun s -> s.ok) p.samples)

(* --- freshness ----------------------------------------------------- *)

(* The time from appending an entry to the first answer that holds it:
   [times] sorted, over [tried] appends of which [missed] never came
   back. *)
type freshness = { times : float array; tried : int; missed : int }

let no_freshness = { times = [||]; tried = 0; missed = 0 }

(* [probe k] for k = 0 .. [freshness_probes] - 1, stopping at the
   first miss: a miss waits 10 s, and 30 of them would outlast the
   run's time limit. *)
let run_probes probe =
  let rec go k acc =
    if k = freshness_probes then acc
    else match probe k with Some t -> go (k + 1) (t :: acc) | None -> acc
  in
  let times = go 0 [] in
  let tried = min freshness_probes (List.length times + 1) in
  { times = Perfstat.sorted times; tried; missed = tried - List.length times }

let append_entry path text =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0 in
  let n = Unix.write_substring fd text 0 (String.length text) in
  Unix.close fd;
  if n <> String.length text then fail "short append"

(* Rows of [file] in [rows], in order. *)
let rows_of file rows = List.filter (fun (f, _) -> f = file) rows

(* The rows a marker query returns once markers 0..[k] have been
   appended round-robin over [sources], in file order; within a file
   the query returns them sorted, and they are compared so. *)
let marker_rows ~sources k =
  let n = List.length sources in
  List.concat
    (List.mapi
       (fun i f ->
         List.filter_map
           (fun j -> if j mod n = i then Some (f, [ Gen.marker_text j ]) else None)
           (List.init (k + 1) Fun.id))
       sources)

(* Marker rows compared file by file, each file's sorted. *)
let same_rows ~sources a b =
  List.for_all
    (fun f -> List.sort compare (rows_of f a) = List.sort compare (rows_of f b))
    sources

(* Freshness on a daemon workload without a writer, after its measured
   loop: [freshness_probes] markers appended one at a time, round-robin
   over the sources, each followed by the marker query in a closed loop
   until an answer holds it.  A marker that has not come back after
   10 s, or an answer that is not every marker so far, is a miss. *)
let probe_daemon ~socket ~schema ~sources (m : Gen.markers) =
  with_conn socket @@ fun c ->
  run_probes (fun k ->
    let t0 = now_ms () in
    append_entry (List.nth sources (k mod List.length sources)) (m.entry k);
    let expected = marker_rows ~sources k in
    let rec poll () =
      match send c ~schema ~keep:true m.query with
      | _, _, Ok a
        when List.length a.rows < List.length expected && now_ms () -. t0 < 10000. ->
          poll ()
      | _, _, Ok a when same_rows ~sources a.rows expected -> Some (now_ms () -. t0)
      | _, _, Ok _ ->
          note_error (Printf.sprintf "freshness probe %d: wrong or stale answer" k);
          None
      | _, _, Error e ->
          note_error (Printf.sprintf "freshness probe %d: %s" k e);
          None
    in
    poll ())

(* --- results ------------------------------------------------------- *)

type run = {
  attempted : int;
  failed : int;
  end_to_end : Perfstat.metric list;
  per_layer : Perfstat.metric list;
  report : string list;  (** extra lines: metrics without a gate *)
}

(* Every end-to-end metric but setup_s, which [with_setup] adds. *)
let end_to_end ~phase ~rss_mb ~index_ratio ~freshness =
  Perfstat.
    [
      metric "latency_p50_ms" "ms" (pct "latency_p50_ms" phase 50);
      metric "latency_p90_ms" "ms" (pct "latency_p90_ms" phase 90);
      metric "first_row_p50_ms" "ms" (first_row_p50 phase);
      metric "throughput_qps" "1/s" (float_of_int (ok_count phase) /. phase.wall_s);
      metric "freshness_p50_ms" "ms"
        (match percentile freshness.times 50 with
        | Some v -> v
        | None ->
            fail "freshness_p50_ms: %d markers are too few" (Array.length freshness.times));
      metric "daemon_rss_mb" "MiB" rss_mb;
      metric "index_bytes_ratio" "ratio" index_ratio;
    ]

(* The workload's own set-up is passed to [run], which stops its
   daemon.  An untraced run also times throwaway set-ups before and
   after it, so that together they span the run, and reports their
   median as setup_s: the machine's speed drifts over seconds, longer
   than one set-up takes. *)
let with_setup ~work ~schema ~files ~daemon ~traced run =
  let series tag =
    if traced then []
    else setup_times ~work ~tag ~schema ~files ~daemon ~budget_s:setup_budget_s
  in
  let before = series "pre" in
  let s = setup_once ~dir:(Filename.concat work "run") ~schema ~files ~daemon in
  let r = run s in
  let after = series "post" in
  if traced then r
  else
    let times = Perfstat.sorted ((s.seconds :: before) @ after) in
    {
      r with
      end_to_end = Perfstat.metric "setup_s" "s" (Perfstat.median times) :: r.end_to_end;
      report =
        Printf.sprintf "setup_s: median of %d set-ups, min %.4f s, max %.4f s"
          (Array.length times) times.(0)
          times.(Array.length times - 1)
        :: r.report;
    }

(* Report lines: the latency quartiles, and p99 where the run holds
   enough samples for it. *)
let tail_lines phase =
  let a = latencies phase in
  let n = Array.length a in
  let q1, q2, q3 =
    match Perfstat.quartiles a with [ q1; q2; q3 ] -> (q1, q2, q3) | _ -> assert false
  in
  [
    Printf.sprintf "latency quartiles %.3f / %.3f / %.3f ms (n=%d)" q1 q2 q3 n;
    (match Perfstat.percentile a 99 with
    | Some v -> Printf.sprintf "latency_p99_ms %.3f ms (n=%d)" v n
    | None ->
        Printf.sprintf
          "latency_p99_ms not reported: n=%d leaves fewer than %d samples beyond p99"
          n Perfstat.min_beyond);
  ]

let index_ratio ~catdir ~sources =
  float_of_int (du catdir)
  /. float_of_int (List.fold_left (fun acc p -> acc + file_size p) 0 sources)

(* Per-layer metrics of a daemon workload: counters from the untraced
   phase [u], spans from the traced phase [t], divided per request. *)
let daemon_layers ~u ~t ~probe ~cli_ms =
  let diff = Perfstat.diff_counters ~before:u.before ~after:u.after in
  let c = Perfstat.counter diff in
  let reqs = float_of_int (List.length t.samples) in
  let u_reqs = float_of_int (List.length u.samples) in
  let spans = Option.get t.spans in
  let total name =
    match Perfstat.find_totals spans name with Some x -> x.total_ms | None -> 0.
  and self name =
    match Perfstat.find_totals spans name with Some x -> x.self_ms | None -> 0.
  and sum name k =
    match Perfstat.find_totals spans name with
    | Some x -> Option.value ~default:0. (Hashtbl.find_opt x.sums k)
    | None -> 0.
  and count name =
    match Perfstat.find_totals spans name with Some x -> float_of_int x.count | None -> 0.
  in
  let per_req v = if reqs = 0. then 0. else v /. reqs in
  let eval_ms =
    List.fold_left (fun acc (x : Perfstat.totals) -> acc +. x.total_ms) 0.
      (Perfstat.totals_with_prefix spans "phase1.")
  in
  let daemon_p50 =
    Option.value ~default:0.
      (Perfstat.histogram_field u.after "serve.request_latency_ms" "p50")
  in
  let u_p50 = pct "untraced latency_p50_ms" u 50
  and t_p50 = pct "traced latency_p50_ms" t 50 in
  let answers = sum "query.run" "answers" in
  Perfstat.(
    [
      metric "trace.requests" "count" reqs;
      metric "trace.overhead_pct" "%" ((t_p50 -. u_p50) /. u_p50 *. 100.);
      metric "serve.self_ms" "ms" (per_req (self "serve.request"));
      metric "serve.wire_ms" "ms" (if daemon_p50 = 0. then 0. else u_p50 -. daemon_p50);
      metric "serve.rejected" "count" (c "serve.rejected");
      metric "serve.catalog_reloads" "count" (c "serve.catalog_reloads");
    ]
    @ ratio ~name:"exec.rcache.hit_ratio" ~base_name:"exec.rcache.probes"
        ~num:(c "exec.rcache.hits" +. c "exec.rcache.containment_hits")
        ~den:(c "exec.rcache.hits" +. c "exec.rcache.misses")
    @ [
        metric "exec.rcache.containment_hits" "count" (c "exec.rcache.containment_hits");
        metric "exec.rcache.evictions" "count" (c "exec.rcache.evictions");
        metric "exec.pool.queue_depth_p95" "count"
          (Option.value ~default:0.
             (histogram_field u.after "exec.pool.queue_depth" "p95"));
      ]
    @ ratio ~name:"catalog.cache_hit_ratio" ~base_name:"catalog.cache_probes"
        ~num:(c "engine.cache_hits")
        ~den:(c "engine.cache_hits" +. c "engine.cache_misses")
    @ [
        metric "catalog.refresh_ms" "ms" (per_req (total "catalog.refresh"));
        metric "catalog.commit_ms" "ms" (per_req (total "gen.commit"));
        metric "catalog.commits" "count" (c "catalog.commits");
        metric "catalog.retired" "count" (c "catalog.retired");
      ]
    @ probe
    @ [
        metric "cli.start_ms" "ms" cli_ms;
        metric "oqf.compile_ms" "ms" (per_req (total "query.compile"));
        metric "oqf.analyze_ms" "ms" (per_req (total "query.analyze"));
        metric "oqf.plan_ms" "ms" (per_req (self "query.phase1"));
        metric "ralg.eval_ms" "ms" (per_req eval_ms);
        metric "oqf.join_assist_ms" "ms" (per_req (total "query.join_assist"));
        metric "fschema.parse_ms" "ms" (per_req (total "phase2.parse"));
        metric "odb.filter_ms" "ms" (per_req (self "query.phase2"));
        metric "ralg.region_comparisons" "count"
          (if u_reqs = 0. then 0. else c "engine.region_comparisons" /. u_reqs);
      ]
    @ ratio ~name:"oqf.candidates_per_answer" ~base_name:"oqf.answers"
        ~num:(sum "query.run" "candidates") ~den:answers
    @ [
        metric "oqf.bytes_parsed_per_answer" "bytes"
          (if answers = 0. then 0. else sum "phase2.parse" "bytes_parsed" /. answers);
      ]
    @ ratio ~name:"oqf.join_assisted_ratio" ~base_name:"oqf.runs"
        ~num:(sum "query.run" "join_assisted") ~den:(count "query.run"))

(* The result of a daemon workload: the untraced phase [u] and, in a
   traced run, the traced phase [t]; [wrong] answers found after the
   run and missed markers count as failed. *)
let daemon_result ~schema ~(s : setup) ~u ~t ~rss_mb ~index_ratio ~freshness ~wrong
    ~report =
  let all = u.samples @ Option.fold ~none:[] ~some:(fun p -> p.samples) t in
  {
    attempted = List.length all + freshness.tried;
    failed = wrong + freshness.missed + List.length (List.filter (fun x -> not x.ok) all);
    end_to_end =
      (match t with
      | Some _ -> []
      | None -> end_to_end ~phase:u ~rss_mb ~index_ratio ~freshness);
    per_layer =
      (match t with
      | None -> []
      | Some t ->
          daemon_layers ~u ~t
            ~probe:(catalog_probe ~schema ~catdir:s.catdir ~sources:s.sources)
            ~cli_ms:(cli_start_ms (cli_exe ())));
    report = tail_lines u @ report;
  }

(* --- lookup -------------------------------------------------------- *)

let run_lookup ~work ~seed ~seconds ~traced =
  let files = Gen.bibtex_files ~seed ~files:lookup_files ~refs:lookup_refs in
  with_setup ~work ~schema:"bibtex" ~files ~daemon:true ~traced @@ fun s ->
  let d = Option.get s.daemon in
  let g = Gen.lookup ~seed in
  let stride = oracle_stride ~cold:false in
  let offset = seed mod stride in
  let issued = ref 0 in
  let sampled = ref [] and sample_lock = Mutex.create () in
  (* In a traced run the untraced and the traced phase take alternate
     texts of one sequence, so that both see the same mix. *)
  let deferred = Queue.create () in
  let take ~for_traced =
    if for_traced then
      if Queue.is_empty deferred then Gen.next_lookup g else Some (Queue.pop deferred)
    else
      let text = Gen.next_lookup g in
      if traced then Option.iter (fun t -> Queue.push t deferred) (Gen.next_lookup g);
      text
  in
  let next ~for_traced () =
    match take ~for_traced with
    | None -> None
    | Some text ->
        let i = !issued in
        incr issued;
        if i mod stride = offset && List.length !sampled < oracle_max then
          Some
            (job ~keep:true text ~check:(fun a ->
                 Mutex.protect sample_lock (fun () ->
                     sampled := (text, a.rows) :: !sampled);
                 true))
        else Some (job text)
  in
  (* warm-up, one second of the same mix: every instance loaded into
     the daemon's cache, its heap grown to its working size *)
  ignore
    (closed_loop ~socket:d.socket ~schema:"bibtex" ~conns ~seconds:1.
       ~next:(fun () -> Option.map job (Gen.next_lookup g)));
  let phase traced =
    daemon_phase ~work d ~schema:"bibtex" ~traced ~seconds ~conns
      ~next:(next ~for_traced:traced)
  in
  let u = phase false in
  let t = if traced then Some (phase true) else None in
  let rss_mb = Daemon.peak_rss_mb d in
  let index_ratio = index_ratio ~catdir:s.catdir ~sources:s.sources in
  let texts = load_texts s.sources in
  let freshness =
    if traced then no_freshness
    else probe_daemon ~socket:d.socket ~schema:"bibtex" ~sources:s.sources Gen.bibtex_markers
  in
  Daemon.stop d;
  let wrong =
    List.length
      (List.filter
         (fun (text, rows) ->
           let expected = oracle_rows ~schema:"bibtex" ~texts text in
           let same =
             List.for_all (fun (f, _) -> rows_of f rows = rows_of f expected) texts
           in
           if not same then note_error ("differs from the full-parse oracle: " ^ text);
           not same)
         !sampled)
  in
  daemon_result ~schema:"bibtex" ~s ~u ~t ~rss_mb ~index_ratio ~freshness ~wrong
    ~report:
      [
        Printf.sprintf "oracle checks: %d texts against run_baseline on %d files"
          (List.length !sampled) (List.length texts);
      ]

(* --- hot ----------------------------------------------------------- *)

let run_hot ~work ~seed ~seconds ~traced =
  let files = Gen.log_files ~seed ~files:hot_files ~entries:hot_entries in
  with_setup ~work ~schema:"log" ~files ~daemon:true ~traced @@ fun s ->
  let d = Option.get s.daemon in
  let texts = Array.of_list Gen.hot_texts in
  let prng = Stdx.Prng.create (seed + 15485863) in
  let first = Hashtbl.create 64 and lock = Mutex.create () in
  let check text a =
    Mutex.protect lock @@ fun () ->
    match Hashtbl.find_opt first text with
    | None ->
        Hashtbl.replace first text a;
        true
    | Some f -> f.digest = a.digest && f.n_rows = a.n_rows
  in
  let next () =
    let text = texts.(Stdx.Zipf.sample Gen.hot_zipf prng) in
    let keep = Mutex.protect lock (fun () -> not (Hashtbl.mem first text)) in
    Some (job ~keep text ~check:(check text))
  in
  (* warm-up: load the instances with a query outside the mix *)
  with_conn d.socket (fun c ->
      ignore
        (send c ~schema:"log" ~keep:false
           {|SELECT e.Timestamp FROM Entries e WHERE e.Level = "INFO"|}));
  let phase traced = daemon_phase ~work d ~schema:"log" ~traced ~seconds ~conns ~next in
  let u = phase false in
  let t = if traced then Some (phase true) else None in
  let rss_mb = Daemon.peak_rss_mb d in
  let index_ratio = index_ratio ~catdir:s.catdir ~sources:s.sources in
  let src_texts = load_texts s.sources in
  let freshness =
    if traced then no_freshness
    else probe_daemon ~socket:d.socket ~schema:"log" ~sources:s.sources (Gen.log_markers 2)
  in
  Daemon.stop d;
  (* the first answer of every text against the full-parse oracle;
     every later answer was compared with it byte for byte *)
  let wrong =
    Hashtbl.fold
      (fun text a acc ->
        let expected = oracle_rows ~schema:"log" ~texts:src_texts text in
        if a.rows = expected then acc
        else begin
          note_error ("differs from the full-parse oracle: " ^ text);
          acc + 1
        end)
      first 0
  in
  daemon_result ~schema:"log" ~s ~u ~t ~rss_mb ~index_ratio ~freshness ~wrong
    ~report:
      [
        Printf.sprintf
          "oracle checks: first answers of %d texts; later answers compared byte for byte"
          (Hashtbl.length first);
      ]

(* --- cold ---------------------------------------------------------- *)

external wait4 : int -> int * int = "perfbench_wait4"

(* One [oqf catalog query] process: latency to exit, time to the first
   row line, exit code, peak RSS in KiB and its standard output. *)
let cli_query ~cli ~catdir text =
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let t0 = now_ms () in
  let pid =
    Unix.create_process cli
      [| cli; "catalog"; "query"; "-c"; catdir; "-s"; "bibtex"; text |]
      Unix.stdin w devnull
  in
  Unix.close w;
  Unix.close devnull;
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let first = ref None in
  let rec read () =
    match Unix.read r chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        if Buffer.length buf = 0 && not (n >= 3 && Bytes.sub_string chunk 0 3 = "-- ")
        then first := Some (now_ms () -. t0);
        Buffer.add_subbytes buf chunk 0 n;
        read ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
  in
  read ();
  Unix.close r;
  let code, maxrss_kb = wait4 pid in
  (now_ms () -. t0, !first, code, maxrss_kb, Buffer.contents buf)

(* [wait4] reports a child's peak RSS as at least that of the process
   that spawned it, so the query processes are started by a small
   process of their own: this executable run with [--launch].  It reads
   "cli TAB catalog TAB query" lines on its standard input and answers
   each with a header line "latency_ms first_row_ms exit_code
   peak_rss_kib output_bytes" followed by the output. *)
let launch_main () =
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> exit 0
    | line -> (
        match String.split_on_char '\t' line with
        | [ cli; catdir; text ] ->
            let lat, first, code, rss, out = cli_query ~cli ~catdir text in
            Printf.printf "%.17g %.17g %d %d %d\n%s%!" lat
              (Option.value ~default:(-1.) first)
              code rss (String.length out) out;
            loop ()
        | _ -> exit 2)
  in
  loop ()

type launcher = { l_pid : int; l_req : out_channel; l_resp : in_channel }

let launcher_start () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let l_pid = Unix.create_process exe [| exe; "--launch" |] req_r resp_w Unix.stderr in
  Unix.close req_r;
  Unix.close resp_w;
  {
    l_pid;
    l_req = Unix.out_channel_of_descr req_w;
    l_resp = Unix.in_channel_of_descr resp_r;
  }

let launcher_query l ~cli ~catdir text =
  output_string l.l_req (String.concat "\t" [ cli; catdir; text ] ^ "\n");
  flush l.l_req;
  let lat, first, code, rss, len =
    Scanf.sscanf (input_line l.l_resp) "%f %f %d %d %d" (fun a b c d e -> (a, b, c, d, e))
  in
  let out = really_input_string l.l_resp len in
  (lat, (if first < 0. then None else Some first), code, rss, out)

let launcher_stop l =
  close_out_noerr l.l_req;
  ignore (Unix.waitpid [] l.l_pid);
  close_in_noerr l.l_resp

(* The row lines of the CLI's output, up to its "-- N rows" footer. *)
let cli_rows out =
  let marker = "\n-- " in
  let out = "\n" ^ out in
  let rec find i =
    if i + String.length marker > String.length out then String.length out
    else if String.sub out i (String.length marker) = marker then i
    else find (i + 1)
  in
  let stop = find 0 in
  if stop <= 1 then "" else String.sub out 1 stop

let render_cli_rows rows =
  String.concat ""
    (List.map (fun (f, vs) -> Printf.sprintf "%s: %s\n" f (String.concat " | " vs)) rows)

(* The CLI's steps for one request, replayed in this process so that a
   span sink can see them: open, staleness refresh, cold load of every
   instance, evaluate. *)
let cold_replay ~catdir text =
  let cat = ok_or "open_dir" (Catalog.open_dir catdir) in
  List.iter (fun (_, r) -> ignore (ok_or "refresh" r)) (Catalog.refresh_all cat);
  let corpus = ok_or "of_catalog" (Oqf.Corpus.of_catalog cat ~schema:"bibtex") in
  ok_or "query"
    (Exec.Driver.run_parallel ~jobs:1 ~fail_policy:Exec.Driver.Fail_fast
       ~plan_mode:Oqf_cost.Planner.Cost_based corpus (Odb.Query_parser.parse_exn text))

(* Freshness on [cold]: [freshness_probes] markers appended one at a
   time, each followed by one query process, which refreshes the stale
   entry before it answers.  The time from the append to its exit; a
   wrong answer is a miss. *)
let probe_cold launcher ~cli ~catdir ~sources =
  let m = Gen.bibtex_markers in
  run_probes (fun k ->
    let t0 = now_ms () in
    append_entry (List.nth sources (k mod List.length sources)) (m.entry k);
    let _, _, code, _, out = launcher_query launcher ~cli ~catdir m.query in
    let t = now_ms () -. t0 in
    let lines text = List.sort compare (String.split_on_char '\n' text) in
    if code = 0 && lines (cli_rows out) = lines (render_cli_rows (marker_rows ~sources k))
    then Some t
    else begin
      note_error
        (Printf.sprintf "freshness probe %d: wrong answer (oqf catalog query exited %d)"
           k code);
      None
    end)

let run_cold ~work ~seed ~seconds ~traced =
  let files = Gen.bibtex_files ~seed ~files:cold_files ~refs:cold_refs in
  with_setup ~work ~schema:"bibtex" ~files ~daemon:false ~traced @@ fun s ->
  let cli = cli_exe () in
  let launchers = List.init conns (fun _ -> launcher_start ()) in
  Fun.protect ~finally:(fun () -> List.iter launcher_stop launchers) @@ fun () ->
  let g = Gen.lookup ~seed in
  let stride = oracle_stride ~cold:true in
  let offset = seed mod stride in
  let n_files = List.length s.sources in
  let footer_ok out =
    let needle = Printf.sprintf " rows from %d files;" n_files in
    let n = String.length needle and m = String.length out in
    let rec has i = i + n <= m && (String.sub out i n = needle || has (i + 1)) in
    has 0
  in
  (* outputs kept for the oracle, which runs after the measured loop *)
  let sampled = ref [] and lock = Mutex.create () in
  let issue_cli launcher i text =
    let lat, first, code, rss, out = launcher_query launcher ~cli ~catdir:s.catdir text in
    let ok = code = 0 && footer_ok out in
    if not ok then
      note_error (Printf.sprintf "oqf catalog query exited %d: %s" code text);
    Mutex.protect lock (fun () ->
        if ok && i mod stride = offset && List.length !sampled < oracle_max then
          sampled := (text, out) :: !sampled);
    ({ lat_ms = (if ok then lat else infinity); first_row_ms = first; ok }, rss)
  in
  (* One query process per launcher at a time, in a closed loop, for
     [seconds] and on until [cold_min_requests] have been sent.  With
     one process at a time in all, the run-to-run spread on the machine
     measured in README.md was about twice as wide. *)
  let cli_loop () =
    let t0 = now_ms () in
    let deadline = t0 +. (seconds *. 1000.) in
    let sent = ref 0 and results = ref [] in
    let next () =
      Mutex.protect lock (fun () ->
          if now_ms () >= deadline && !sent >= cold_min_requests then None
          else
            Option.map
              (fun text ->
                incr sent;
                (!sent - 1, text))
              (Gen.next_lookup g))
    in
    let worker l =
      let rec go () =
        match next () with
        | None -> ()
        | Some (i, text) ->
            let r = issue_cli l i text in
            Mutex.protect lock (fun () -> results := r :: !results);
            go ()
      in
      go ()
    in
    List.iter Thread.join (List.map (Thread.create worker) launchers);
    (!results, (now_ms () -. t0) /. 1000.)
  in
  (* the traced replay: one request at a time, in this process *)
  let loop ~seconds f =
    let t0 = now_ms () in
    let deadline = t0 +. (seconds *. 1000.) in
    let rec go acc =
      if now_ms () >= deadline then List.rev acc
      else
        match Gen.next_lookup g with
        | None -> List.rev acc
        | Some text -> go (f text :: acc)
    in
    let r = go [] in
    (r, (now_ms () -. t0) /. 1000.)
  in
  let none = Obs.Jsonx.Null in
  if not traced then begin
    (* every kept sample holds at least one row, so first_row applies *)
    let results, wall_s = cli_loop () in
    let samples = List.map fst results in
    (* no daemon: the median peak RSS of the query processes *)
    let rss =
      Perfstat.sorted (List.map (fun (_, kb) -> float_of_int kb /. 1024.) results)
    in
    let rss_mb = Perfstat.median rss in
    let index_ratio = index_ratio ~catdir:s.catdir ~sources:s.sources in
    let src_texts = load_texts s.sources in
    let freshness =
      probe_cold (List.hd launchers) ~cli ~catdir:s.catdir ~sources:s.sources
    in
    let wrong =
      List.length
        (List.filter
           (fun (text, out) ->
             let expected =
               render_cli_rows (oracle_rows ~schema:"bibtex" ~texts:src_texts text)
             in
             let differs = cli_rows out <> expected in
             if differs then note_error ("differs from the full-parse oracle: " ^ text);
             differs)
           !sampled)
    in
    let phase = { samples; wall_s; before = none; after = none; spans = None } in
    {
      attempted = List.length samples + freshness.tried;
      failed =
        wrong + freshness.missed + List.length (List.filter (fun x -> not x.ok) samples);
      end_to_end = end_to_end ~phase ~rss_mb ~index_ratio ~freshness;
      per_layer = [];
      report =
        tail_lines phase
        @ [
          Printf.sprintf
            "oracle checks: %d CLI outputs against run_baseline on %d files"
            (List.length !sampled) n_files;
          Printf.sprintf
            "query process peak RSS: min %.2f, median %.2f, max %.2f MiB"
            rss.(0) rss_mb
            rss.(Array.length rss - 1);
        ];
    }
  end
  else begin
    let replay text =
      let t0 = now_ms () in
      let out = cold_replay ~catdir:s.catdir text in
      let lat_ms = now_ms () -. t0 in
      (* the replay returns all rows at once *)
      let first_row_ms = if out.Exec.Driver.rows = [] then None else Some lat_ms in
      { lat_ms; first_row_ms; ok = true }
    in
    (* no daemon: the counters come from this process's registry,
       read in the shape of the daemon's [stats] payload *)
    let registry () =
      Obs.Jsonx.Obj
        [
          ( "counters",
            Obs.Jsonx.Obj
              (List.map
                 (fun (n, v) -> (n, Obs.Jsonx.Num (float_of_int v)))
                 (Obs.Metrics.counters ())) );
        ]
    in
    let before = registry () in
    let u_samples, u_wall = loop ~seconds replay in
    let u =
      { samples = u_samples; wall_s = u_wall; before; after = registry (); spans = None }
    in
    let t_samples = ref [] and t_wall = ref 0. in
    let spans =
      with_spans (fun () ->
          let smp, w = loop ~seconds replay in
          t_samples := smp;
          t_wall := w)
    in
    let t =
      {
        samples = !t_samples;
        wall_s = !t_wall;
        before = none;
        after = none;
        spans = Some spans;
      }
    in
    {
      attempted = List.length u_samples + List.length !t_samples;
      failed = 0;
      end_to_end = [];
      per_layer =
        daemon_layers ~u ~t
          ~probe:(catalog_probe ~schema:"bibtex" ~catdir:s.catdir ~sources:s.sources)
          ~cli_ms:(cli_start_ms cli);
      report =
        [ "cold traced run: the CLI's steps replayed in-process, untraced then traced" ];
    }
  end

(* --- ingest -------------------------------------------------------- *)

let run_ingest ~work ~seed ~seconds ~traced =
  let files = Gen.log_files ~seed ~files:ingest_files ~entries:ingest_entries in
  with_setup ~work ~schema:"log" ~files ~daemon:true ~traced @@ fun s ->
  let d = Option.get s.daemon in
  let sources = Array.of_list s.sources in
  let written = Atomic.make 0 in
  (* markers appended per phase: 0 untraced, 1 traced *)
  let per_phase = [| Atomic.make 0; Atomic.make 0 |] in
  let lateness = ref [] in
  (* first arrival time of every marker, by number *)
  let seen = Hashtbl.create 256 and due = Hashtbl.create 256 in
  let lock = Mutex.create () in
  let append ~phase k =
    append_entry sources.(k mod Array.length sources) ((Gen.log_markers phase).entry k);
    Atomic.incr per_phase.(phase);
    Atomic.incr written
  in
  (* open loop: append on a fixed schedule, timing from the due time *)
  let writer ~phase ~seconds =
    let t0 = now_ms () in
    let k0 = Atomic.get written in
    let rec go i =
      let due_t = t0 +. (float_of_int i *. append_every_ms) in
      if due_t < t0 +. (seconds *. 1000.) then begin
        let wait = due_t -. now_ms () in
        if wait > 0. then Unix.sleepf (wait /. 1000.);
        Mutex.lock lock;
        Hashtbl.replace due (k0 + i) due_t;
        lateness := (now_ms () -. due_t) :: !lateness;
        Mutex.unlock lock;
        append ~phase (k0 + i);
        go (i + 1)
      end
    in
    go 0
  in
  let marker_number v = Scanf.sscanf_opt v "marker m%d%!" Fun.id in
  let on_row t _file values =
    match values with
    | [ v ] -> (
        match marker_number v with
        | Some k ->
            Mutex.lock lock;
            if not (Hashtbl.mem seen k) then Hashtbl.replace seen k t;
            Mutex.unlock lock
        | None -> ())
    | _ -> ()
  in
  (* every marker that comes back must have been written *)
  let check_markers a =
    let w = Atomic.get written in
    List.for_all
      (fun (_, vs) ->
        match vs with
        | [ v ] -> ( match marker_number v with Some k -> k < w | None -> false)
        | _ -> false)
      a.rows
  in
  (* The reader sends only the marker query.  Between two appends it is
     answered from the result cache, so the request that sees a new
     generation is the only slow one: about 3% of requests at this
     append rate, well above p90.  More texts would put several misses
     after every append and p90 on the border between the two modes. *)
  let phase traced =
    let phase = Bool.to_int traced in
    let query = (Gen.log_markers phase).query in
    (* warm-up: one marker, queried once *)
    append ~phase (Atomic.get written);
    with_conn d.socket (fun c -> ignore (send c ~schema:"log" ~keep:false query));
    let w = Thread.create (fun () -> writer ~phase ~seconds) () in
    let p =
      daemon_phase ~work d ~schema:"log" ~traced ~seconds ~conns:1 ~next:(fun () ->
          Some (job ~keep:true ~on_row ~check:check_markers query))
    in
    Thread.join w;
    p
  in
  let u = phase false in
  let t = if traced then Some (phase true) else None in
  (* every marker must become visible; then the last answers must be
     what a freshly reopened catalog answers *)
  let total = Atomic.get written in
  let phases = if traced then [ 0; 1 ] else [ 0 ] in
  let final =
    with_conn d.socket (fun c ->
        let deadline = now_ms () +. 10000. in
        List.map
          (fun phase ->
            let query = (Gen.log_markers phase).query in
            let rec until_visible () =
              match send c ~schema:"log" ~keep:true ~on_row query with
              | _, _, Ok a
                when a.n_rows >= Atomic.get per_phase.(phase) || now_ms () > deadline ->
                  (query, a.rows)
              | _, _, Ok _ -> until_visible ()
              | _, _, Error e -> fail "final marker query: %s" e
            in
            until_visible ())
          phases)
  in
  let rss_mb = Daemon.peak_rss_mb d in
  let index_ratio = index_ratio ~catdir:s.catdir ~sources:s.sources in
  Daemon.stop d;
  let missing = max 0 (total - Hashtbl.length seen) in
  if missing > 0 then
    note_error (Printf.sprintf "%d appended markers never became visible" missing);
  let reopened = ok_or "reopen" (Catalog.open_dir s.catdir) in
  let corpus = ok_or "of_catalog" (Oqf.Corpus.of_catalog reopened ~schema:"log") in
  let disagree =
    List.length
      (List.filter
         (fun (query, rows) ->
           let out =
             ok_or "reopened query"
               (Oqf.Corpus.run corpus (Odb.Query_parser.parse_exn query))
           in
           let differs =
             List.map
               (fun (f, row) -> (f, List.map Odb.Value.to_display_string row))
               out.Oqf.Corpus.rows
             <> rows
           in
           if differs then note_error ("the reopened catalog answers differently: " ^ query);
           differs)
         final)
  in
  (* from the due time of every marker the writer appended *)
  let freshness =
    {
      times =
        Perfstat.sorted
          (Hashtbl.fold
             (fun k t acc ->
               match Hashtbl.find_opt due k with Some d -> (t -. d) :: acc | None -> acc)
             seen []);
      tried = total;
      missed = missing;
    }
  in
  let late = Perfstat.sorted !lateness in
  daemon_result ~schema:"log" ~s ~u ~t ~rss_mb ~index_ratio ~freshness ~wrong:disagree
    ~report:
      [
        Printf.sprintf
          "writer lateness p50 %.3f ms, max %.3f ms (n=%d appends, every %g ms)"
          (Perfstat.median late)
          (if Array.length late = 0 then 0. else late.(Array.length late - 1))
          (Array.length late) append_every_ms;
        Printf.sprintf
          "markers: %d appended, %d visible; final answers (%d rows) checked \
           against a reopened catalog"
          total (Hashtbl.length seen)
          (List.fold_left (fun acc (_, rows) -> acc + List.length rows) 0 final);
      ]

(* --- main ---------------------------------------------------------- *)

let () =
  match Sys.argv with
  | [| _; "--daemon"; catalog_dir; socket |] -> Daemon.main ~catalog_dir ~socket
  | [| _; "--launch" |] -> launch_main ()
  | _ -> ()

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " lookup | hot | cold | ingest");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds per phase");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "oqfbench --workload W --seed N --seconds S --trace 0|1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a run that hangs is ended by SIGALRM well inside the 180 s limit;
     the daemon and the launcher see end of file on their pipes and
     exit on their own *)
  ignore (Unix.alarm 170);
  let run =
    match !workload with
    | "lookup" -> run_lookup
    | "hot" -> run_hot
    | "cold" -> run_cold
    | "ingest" -> run_ingest
    | w ->
        prerr_endline ("unknown workload " ^ w);
        exit 2
  in
  let work =
    Filename.concat ".bench_work" (Printf.sprintf "%s-%d" !workload (Unix.getpid ()))
  in
  mkdir_p work;
  List.iter print_endline (host_lines ~workload:!workload ~seed:!seed);
  let traced = !trace = 1 in
  let code =
    Fun.protect
      ~finally:(fun () ->
        Daemon.stop_all ();
        rm_rf work;
        try Unix.rmdir ".bench_work" with Unix.Unix_error _ -> ())
    @@ fun () ->
    match run ~work ~seed:!seed ~seconds:!seconds ~traced with
    | r ->
        List.iter print_endline r.report;
        let metrics = if traced then r.per_layer else r.end_to_end in
        List.iter
          (fun (m : Perfstat.metric) ->
            Printf.printf "%s %.6g %s\n" m.name m.value m.unit)
          metrics;
        Printf.printf "error_rate %.6g (%d failed of %d attempted)\n"
          (float_of_int r.failed /. float_of_int (max 1 r.attempted))
          r.failed r.attempted;
        List.iter (fun e -> Printf.printf "error: %s\n" e) (List.rev !errors);
        let correct = r.failed = 0 && r.attempted > 0 in
        print_endline
          (Perfstat.result_line ~correct ~attempted:r.attempted ~failed:r.failed metrics);
        if correct then 0 else 1
    | exception e ->
        prerr_endline
          ("oqfbench: "
          ^ match e with Bench_error m -> m | e -> Printexc.to_string e);
        List.iter (fun e -> prerr_endline ("error: " ^ e)) (List.rev !errors);
        1
  in
  exit code
