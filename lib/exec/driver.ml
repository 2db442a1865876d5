type shard_report = {
  shard : int;
  files : string list;
  weight_bytes : int;
  elapsed_ms : float;
}

type fail_policy = Fail_fast | Partial | Degrade

let fail_policy_of_string = function
  | "fail-fast" -> Ok Fail_fast
  | "partial" -> Ok Partial
  | "degrade" -> Ok Degrade
  | s ->
      Error
        (Printf.sprintf
           "unknown fail policy %S (expected fail-fast, partial or degrade)" s)

let fail_policy_to_string = function
  | Fail_fast -> "fail-fast"
  | Partial -> "partial"
  | Degrade -> "degrade"

type outcome = {
  rows : (string * Odb.Query_eval.row) list;
  per_file : (string * Oqf.Execute.outcome) list;
  per_shard : shard_report list;
  stats : Stdx.Stats.t;
  from_cache : bool;
  cache_superset : string option;
  degraded : Oqf.Degrade.t list;
}

let shard_quarantined = Obs.Metrics.counter "shard.quarantined"

let default_jobs () =
  match Sys.getenv_opt "OQF_JOBS" with
  | Some s -> begin
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> 1
    end
  | None -> 1

(* --- query-log integration ---------------------------------------- *)

let counter_value name =
  match Obs.Metrics.find_counter name with
  | Some c -> Obs.Metrics.value c
  | None -> 0

let schema_of_corpus corpus =
  match Oqf.Corpus.sources corpus with
  | (_, src) :: _ ->
      Option.value
        (Oqf_catalog.Schemas.name_of_view src.Oqf.Execute.view)
        ~default:""
  | [] -> ""

(* Whole-query latency under the workload label, interned per
   workload.  Execute.run's query.latency_ms{workload} is per *file*;
   this histogram is per driven query — the series `oqf stats` over a
   qlog of the same traffic reproduces. *)
let exec_query_ms =
  let table : (string, Obs.Metrics.histogram) Hashtbl.t = Hashtbl.create 8 in
  let lock = Mutex.create () in
  fun workload ->
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        match Hashtbl.find_opt table workload with
        | Some h -> h
        | None ->
            let h =
              Obs.Metrics.histogram
                (Obs.Label.render "exec.query_ms" [ ("workload", workload) ])
            in
            Hashtbl.replace table workload h;
            h)

(* One qlog record per driven query (the per-file Execute.run calls
   underneath deliberately get no qctx, so they stay silent).  The
   retry/fault figures are process-global counter deltas around the
   run — exact when requests are sequential, attribution-approximate
   under concurrency, which is fine for trend aggregation. *)
let with_qlog ?qctx ?generation ~kind corpus q run =
  match (qctx, Obs.Qlog.installed ()) with
  | Some (ctx : Obs.Qlog.ctx), Some log ->
      let t0 = Obs.Trace.now_ms () in
      let retries0 = counter_value "retry.attempts" in
      let faults0 = counter_value "fault.injected" in
      let result = run () in
      let latency_ms = Obs.Trace.now_ms () -. t0 in
      let schema = schema_of_corpus corpus in
      let retries = counter_value "retry.attempts" - retries0 in
      let faults = counter_value "fault.injected" - faults0 in
      let record ~rows ~cached ~shards ~outcome ?error ~events () =
        Obs.Qlog.append log
          (Obs.Qlog.make ~ctx ~workload_default:schema ~schema ~kind
             ~query:(Odb.Query.to_string q) ~latency_ms ~rows ~cached ~shards
             ~outcome ?error ~events ~retries ~faults ?generation ())
      in
      (match result with
      | Ok (o : outcome) ->
          record ~rows:(List.length o.rows) ~cached:o.from_cache
            ~shards:(List.length o.per_shard)
            ~outcome:(if o.degraded = [] then "ok" else "degraded")
            ~events:
              ((match o.cache_superset with
               | Some superset -> [ ("rcache.containment", superset) ]
               | None -> [])
              @ List.map
                  (fun (d : Oqf.Degrade.t) ->
                    (Oqf.Degrade.action_to_string d.Oqf.Degrade.action,
                     d.Oqf.Degrade.file))
                  o.degraded)
            ()
      | Error e ->
          record ~rows:0 ~cached:false ~shards:0 ~outcome:"error" ~error:e
            ~events:[] ());
      let workload = if ctx.workload <> "" then ctx.workload else schema in
      if workload <> "" then
        Obs.Metrics.observe (exec_query_ms workload) latency_ms;
      result
  | _ -> run ()

let cached_outcome ?superset payload =
  {
    rows = payload;
    per_file = [];
    per_shard = [];
    stats = Stdx.Stats.create ();
    from_cache = true;
    cache_superset = superset;
    degraded = [];
  }

(* Cache protocol shared by the sequential and parallel paths: probe,
   run on miss, populate on success.  A degraded outcome is never
   cached — its rows may not reflect what the indices will serve once
   the fault clears. *)
let with_cache cache corpus q run =
  match cache with
  | None -> run ()
  | Some cache ->
      let key = Rcache.key ~query:q ~fingerprint:(Rcache.fingerprint corpus) in
      (match Rcache.find cache key with
      | Some payload -> Ok (cached_outcome payload)
      | None -> begin
          match Rcache.find_contained cache key with
          | Some (payload, superset) ->
              (* a resident superset answered by filtering; populate the
                 exact key so the next occurrence hits directly *)
              Rcache.add cache key payload;
              Ok (cached_outcome ~superset payload)
          | None -> begin
              match run () with
              | Error _ as e -> e
              | Ok outcome ->
                  if outcome.degraded = [] then
                    Rcache.add cache key outcome.rows;
                  Ok outcome
            end
        end)

(* Turn corpus-ordered per-file results into an outcome body according
   to the fail policy.  [Fail_fast] surfaces the earliest failure;
   [Partial] excludes failed files; [Degrade] walks the recovery
   ladder per failed file: circuit breaker → query-level error check →
   naive scan of the raw file → exclusion.  Returns the merged rows,
   the indexed per-file outcomes, and the degradation report. *)
let resolve ~fail_policy q results =
  let exception Abort of string in
  let breaker_key name = "source:" ^ name in
  try
    let rows = ref [] in
    let per_file = ref [] in
    let degraded = ref [] in
    let note d = degraded := d :: !degraded in
    List.iter
      (fun (name, (src : Oqf.Execute.source), result) ->
        match result with
        | Ok (o : Oqf.Execute.outcome) ->
            Stdx.Retry.Breaker.success (breaker_key name);
            rows :=
              List.rev_append
                (List.map (fun row -> (name, row)) o.Oqf.Execute.rows)
                !rows;
            per_file := (name, o) :: !per_file
        | Error e -> begin
            match fail_policy with
            | Fail_fast -> raise (Abort (Printf.sprintf "%s: %s" name e))
            | Partial ->
                Obs.Metrics.incr shard_quarantined;
                note (Oqf.Degrade.make ~file:name Oqf.Degrade.Excluded e)
            | Degrade ->
                if Stdx.Retry.Breaker.state (breaker_key name) = Stdx.Retry.Breaker.Open
                then begin
                  Obs.Metrics.incr shard_quarantined;
                  note
                    (Oqf.Degrade.make ~file:name Oqf.Degrade.Excluded
                       ("circuit open; " ^ e))
                end
                else begin
                  match Oqf.Execute.semantic_error src.Oqf.Execute.view q with
                  | Some se ->
                      (* the query itself is broken: every file fails the
                         same way, degrading would silently return nothing *)
                      raise (Abort (Printf.sprintf "%s: %s" name se))
                  | None -> begin
                      match Oqf.Execute.run_naive ~file:name src q with
                      | Ok nrows ->
                          Stdx.Retry.Breaker.success (breaker_key name);
                          rows :=
                            List.rev_append
                              (List.map (fun row -> (name, row)) nrows)
                              !rows;
                          note
                            (Oqf.Degrade.make ~file:name
                               Oqf.Degrade.Naive_fallback e)
                      | Error ne ->
                          Stdx.Retry.Breaker.failure (breaker_key name);
                          Obs.Metrics.incr shard_quarantined;
                          note
                            (Oqf.Degrade.make ~file:name Oqf.Degrade.Excluded
                               (e ^ "; " ^ ne))
                    end
                end
          end)
      results;
    Ok (List.rev !rows, List.rev !per_file, List.rev !degraded)
  with Abort e -> Error e

let run_one ?optimize ?minimize ?force ?plan_mode ?cache
    ?(fail_policy = Fail_fast) ?qctx ?generation corpus q =
  with_qlog ?qctx ?generation ~kind:"query" corpus q @@ fun () ->
  match fail_policy with
  | Fail_fast -> begin
      with_cache cache corpus q @@ fun () ->
      match Oqf.Corpus.run ?optimize ?minimize ?force ?plan_mode corpus q with
      | Error _ as e -> e
      | Ok r ->
          Ok
            {
              rows = r.Oqf.Corpus.rows;
              per_file = r.Oqf.Corpus.per_file;
              per_shard = [];
              stats = r.Oqf.Corpus.stats;
              from_cache = false;
              cache_superset = None;
              degraded = [];
            }
    end
  | Partial | Degrade -> begin
      with_cache cache corpus q @@ fun () ->
      let before = Stdx.Stats.snapshot () in
      let results =
        List.map
          (fun (name, src) ->
            (name, src, Oqf.Execute.run ?optimize ?minimize ?force ?plan_mode src q))
          (Oqf.Corpus.sources corpus)
      in
      match resolve ~fail_policy q results with
      | Error _ as e -> e
      | Ok (rows, per_file, degraded) ->
          let after = Stdx.Stats.snapshot () in
          Ok
            {
              rows;
              per_file;
              per_shard = [];
              stats = Stdx.Stats.diff ~before ~after;
              from_cache = false;
              cache_superset = None;
              degraded;
            }
    end

(* Evaluate one shard: its files in order.  Under [stop_at_first]
   (fail-fast) evaluation stops at the first failing file, mirroring
   the sequential executor; otherwise every file gets its own result
   so the policies can recover per file.  The [pool.task] fault site
   fires here, inside the retryable task body. *)
let eval_shard ?optimize ?minimize ?force ?plan_mode ~stop_at_first q
    (shard : (string * Oqf.Execute.source) Shard.t) =
  Stdx.Fault.hit "pool.task";
  let t0 = Obs.Trace.now_ms () in
  let rec go acc = function
    | [] -> List.rev acc
    | (name, src) :: rest -> begin
        match Oqf.Execute.run ?optimize ?minimize ?force ?plan_mode src q with
        | Error e ->
            let acc = (name, Error e) :: acc in
            if stop_at_first then List.rev acc else go acc rest
        | Ok r -> go ((name, Ok r) :: acc) rest
      end
  in
  let result =
    if Obs.Trace.enabled () then
      Obs.Trace.with_span "exec.shard"
        ~attrs:(fun () ->
          [
            ("shard", Obs.Trace.Int shard.Shard.id);
            ("files", Obs.Trace.Int (List.length shard.Shard.items));
            ("weight_bytes", Obs.Trace.Int shard.Shard.weight);
          ])
        (fun () -> go [] shard.Shard.items)
    else go [] shard.Shard.items
  in
  let report =
    {
      shard = shard.Shard.id;
      files = List.map fst shard.Shard.items;
      weight_bytes = shard.Shard.weight;
      elapsed_ms = Obs.Trace.now_ms () -. t0;
    }
  in
  (report, result)

let run_parallel ?optimize ?minimize ?force ?plan_mode ?jobs ?cache
    ?timeout_ms ?(fail_policy = Fail_fast) ?qctx ?generation corpus q =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then
    Error (Printf.sprintf "jobs must be at least 1 (got %d)" jobs)
  else
    with_qlog ?qctx ?generation ~kind:"query" corpus q @@ fun () ->
    with_cache cache corpus q @@ fun () ->
    let sources = Oqf.Corpus.sources corpus in
    let position =
      let tbl = Hashtbl.create (List.length sources) in
      List.iteri (fun i (name, _) -> Hashtbl.replace tbl name i) sources;
      fun name -> try Hashtbl.find tbl name with Not_found -> max_int
    in
    let stop_at_first = fail_policy = Fail_fast in
    let eval s =
      eval_shard ?optimize ?minimize ?force ?plan_mode ~stop_at_first q s
    in
    let shards = Shard.of_corpus ~shards:jobs corpus in
    let before = Stdx.Stats.snapshot () in
    let shard_results =
      match shards with
      | [] -> []
      | _ ->
          Pool.with_pool ~jobs:(min jobs (List.length shards)) @@ fun pool ->
          Pool.run_all ?timeout_ms pool
            (List.map
               (fun s () -> Stdx.Retry.io ~site:"pool.task" (fun () -> eval s))
               shards)
    in
    (* A task-level failure (timeout, worker death, injected fault that
       outlived its retry budget) has no file attribution.  Fail-fast
       surfaces it against its shard; the recovering policies re-run
       the shard once on the coordinator and only then push the
       failure down to its files. *)
    let task_errors = ref [] in
    let degraded_shards = ref [] in
    let shard_outcomes =
      List.filter_map
        (fun (shard, res) ->
          match res with
          | Ok (report, per_shard_result) -> Some (report, per_shard_result)
          | Error msg when fail_policy = Fail_fast ->
              task_errors :=
                Printf.sprintf "shard %d: %s" shard.Shard.id msg
                :: !task_errors;
              None
          | Error msg -> begin
              degraded_shards :=
                Oqf.Degrade.make
                  ~file:(Printf.sprintf "shard %d" shard.Shard.id)
                  Oqf.Degrade.Shard_retried msg
                :: !degraded_shards;
              match
                Stdx.Retry.io ~site:"pool.task" (fun () -> eval shard)
              with
              | outcome -> Some outcome
              | exception e ->
                  (* even the direct re-run failed: fail each file and
                     let the per-file ladder take over *)
                  let err = Printexc.to_string e in
                  Some
                    ( {
                        shard = shard.Shard.id;
                        files = List.map fst shard.Shard.items;
                        weight_bytes = shard.Shard.weight;
                        elapsed_ms = 0.;
                      },
                      List.map
                        (fun (name, _) -> (name, Error err))
                        shard.Shard.items )
            end)
        (List.combine shards shard_results)
    in
    let after = Stdx.Stats.snapshot () in
    match List.rev !task_errors with
    | e :: _ -> Error e
    | [] -> begin
        let by_position field =
          List.sort (fun (a, _) (b, _) -> compare (position a) (position b))
            field
        in
        let per_file_results =
          List.concat_map (fun (_, r) -> r) shard_outcomes
          |> by_position
          |> List.map (fun (name, result) ->
                 let src =
                   match List.assoc_opt name sources with
                   | Some src -> src
                   | None -> assert false  (* shards partition the corpus *)
                 in
                 (name, src, result))
        in
        match resolve ~fail_policy q per_file_results with
        | Error _ as e -> e
        | Ok (rows, per_file, degraded) ->
            let per_shard =
              List.sort
                (fun a b -> compare a.shard b.shard)
                (List.map fst shard_outcomes)
            in
            Ok
              {
                rows;
                per_file;
                per_shard;
                stats = Stdx.Stats.diff ~before ~after;
                from_cache = false;
                cache_superset = None;
                degraded = List.rev !degraded_shards @ degraded;
              }
      end

(* --- streaming execution: the serve daemon's per-client path ------- *)

(* Cached payloads are (file, row) pairs in corpus order; re-group the
   consecutive runs so a cache hit still streams per-file blocks. *)
let rec emit_blocks on_rows = function
  | [] -> ()
  | (file, row) :: rest ->
      let rec take acc = function
        | (f, r) :: tl when String.equal f file -> take (r :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      let file_rows, rest = take [ row ] rest in
      on_rows ~file file_rows;
      emit_blocks on_rows rest

let run_streaming ?optimize ?minimize ?force ?plan_mode ?cache ?timeout_ms
    ?(fail_policy = Fail_fast) ?qctx ?generation ~pool ~on_rows corpus q =
  with_qlog ?qctx ?generation ~kind:"query" corpus q @@ fun () ->
  let key =
    match cache with
    | None -> None
    | Some c ->
        Some (c, Rcache.key ~query:q ~fingerprint:(Rcache.fingerprint corpus))
  in
  match Option.bind key (fun (c, k) -> Rcache.find c k) with
  | Some payload ->
      emit_blocks on_rows payload;
      Ok (cached_outcome payload)
  | None ->
  match
    Option.bind key (fun (c, k) ->
        Option.map
          (fun served -> (c, k, served))
          (Rcache.find_contained c k))
  with
  | Some (c, k, (payload, superset)) ->
      (* same per-file block replay as an exact hit, plus the exact-key
         population so the next occurrence short-circuits *)
      Rcache.add c k payload;
      emit_blocks on_rows payload;
      Ok (cached_outcome ~superset payload)
  | None ->
      let before = Stdx.Stats.snapshot () in
      let sources = Oqf.Corpus.sources corpus in
      (* one task per file — finer than the shard-per-worker batch
         path on purpose: file k's rows go to the client as soon as
         its own task resolves, while later files are still scanning
         on other workers.  The shared pool's FIFO queue is what
         arbitrates between concurrent clients. *)
      let handles =
        List.map
          (fun (name, src) ->
            let task () =
              Stdx.Retry.io ~site:"pool.task" (fun () ->
                  Stdx.Fault.hit "pool.task";
                  Oqf.Execute.run ?optimize ?minimize ?force ?plan_mode src q)
            in
            (name, src, Pool.submit ?timeout_ms pool task))
          sources
      in
      let exception Abort of string in
      let breaker_key name = "source:" ^ name in
      let rows = ref [] in
      let per_file = ref [] in
      let degraded = ref [] in
      let note d = degraded := d :: !degraded in
      let emit name file_rows =
        if file_rows <> [] then begin
          rows :=
            List.rev_append (List.map (fun r -> (name, r)) file_rows) !rows;
          on_rows ~file:name file_rows
        end
      in
      (* await in corpus order; the recovery ladder per file mirrors
         [resolve], but rows stream as each file settles *)
      (try
         List.iter
           (fun (name, (src : Oqf.Execute.source), h) ->
             let result =
               match Pool.await h with
               | Ok (Ok o) -> Ok o
               | Ok (Error e) -> Error e
               | Error e -> Error e (* task death or deadline expiry *)
             in
             match result with
             | Ok (o : Oqf.Execute.outcome) ->
                 Stdx.Retry.Breaker.success (breaker_key name);
                 emit name o.Oqf.Execute.rows;
                 per_file := (name, o) :: !per_file
             | Error e -> begin
                 match fail_policy with
                 | Fail_fast ->
                     raise (Abort (Printf.sprintf "%s: %s" name e))
                 | Partial ->
                     Obs.Metrics.incr shard_quarantined;
                     note (Oqf.Degrade.make ~file:name Oqf.Degrade.Excluded e)
                 | Degrade ->
                     if
                       Stdx.Retry.Breaker.state (breaker_key name)
                       = Stdx.Retry.Breaker.Open
                     then begin
                       Obs.Metrics.incr shard_quarantined;
                       note
                         (Oqf.Degrade.make ~file:name Oqf.Degrade.Excluded
                            ("circuit open; " ^ e))
                     end
                     else begin
                       match Oqf.Execute.semantic_error src.Oqf.Execute.view q with
                       | Some se ->
                           raise (Abort (Printf.sprintf "%s: %s" name se))
                       | None -> begin
                           match Oqf.Execute.run_naive ~file:name src q with
                           | Ok nrows ->
                               Stdx.Retry.Breaker.success (breaker_key name);
                               emit name nrows;
                               note
                                 (Oqf.Degrade.make ~file:name
                                    Oqf.Degrade.Naive_fallback e)
                           | Error ne ->
                               Stdx.Retry.Breaker.failure (breaker_key name);
                               Obs.Metrics.incr shard_quarantined;
                               note
                                 (Oqf.Degrade.make ~file:name
                                    Oqf.Degrade.Excluded (e ^ "; " ^ ne))
                         end
                     end
               end)
           handles;
         let after = Stdx.Stats.snapshot () in
         let outcome =
           {
             rows = List.rev !rows;
             per_file = List.rev !per_file;
             per_shard = [];
             stats = Stdx.Stats.diff ~before ~after;
             from_cache = false;
             cache_superset = None;
             degraded = List.rev !degraded;
           }
         in
         (match key with
         | Some (c, k) when outcome.degraded = [] ->
             Rcache.add c k outcome.rows
         | _ -> ());
         Ok outcome
       with Abort e -> Error e)

let run_batch ?optimize ?minimize ?force ?plan_mode ?jobs ?cache ?fail_policy
    ?(workload = "") corpus queries =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then
    List.map
      (fun q -> (q, Error (Printf.sprintf "jobs must be at least 1 (got %d)" jobs)))
      queries
  else
    Pool.with_pool ~jobs @@ fun pool ->
    (* A duplicate of an in-flight query waits for the first occurrence
       before probing the cache, so intra-batch duplicates hit
       deterministically instead of racing the original's insert.  The
       wait cannot deadlock: the queue is FIFO, so the first occurrence
       is dequeued (and its handle eventually completed) strictly
       before any task that waits on it starts. *)
    let fingerprint = lazy (Rcache.fingerprint corpus) in
    let seen = Hashtbl.create 8 in
    let handles =
      List.map
        (fun q ->
          let key =
            match cache with
            | None -> None
            | Some _ ->
                Some (Rcache.key ~query:q ~fingerprint:(Lazy.force fingerprint))
          in
          let first = Option.bind key (Hashtbl.find_opt seen) in
          let h =
            Pool.submit pool (fun () ->
                Option.iter (fun first -> ignore (Pool.await first)) first;
                let qctx =
                  (* one trace id per batched query, minted at task start *)
                  match Obs.Qlog.installed () with
                  | Some _ ->
                      Some
                        {
                          Obs.Qlog.trace_id = Obs.Qlog.gen_trace_id ();
                          workload;
                        }
                  | None -> None
                in
                run_one ?optimize ?minimize ?force ?plan_mode ?cache
                  ?fail_policy ?qctx corpus q)
          in
          (match (key, first) with
          | Some k, None -> Hashtbl.replace seen k h
          | _ -> ());
          (q, h))
        queries
    in
    List.map
      (fun (q, h) ->
        let result =
          match Pool.await h with
          | Ok (Ok outcome) -> Ok outcome
          | Ok (Error e) -> Error e
          | Error e -> Error e  (* the task itself died *)
        in
        (q, result))
      handles

let pp_shard_report ppf r =
  Format.fprintf ppf "shard %d: %d files, %d KB, %.2f ms" r.shard
    (List.length r.files) (r.weight_bytes / 1024) r.elapsed_ms
