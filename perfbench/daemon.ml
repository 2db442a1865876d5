(* The daemon under test: [Serve.Server] with [Server.default_config],
   in a process of its own started before the benchmark starts any
   thread or domain.  It is this executable run with [--daemon], so its
   memory is its own and not a copy of the benchmark's heap.  Besides
   the socket it obeys a control pipe on its standard input, one
   command per line, each acknowledged with "ok" on its standard
   output:

     reset           zero the metrics registry (a phase starts)
     trace on        install a span sink that folds spans into
                     per-name totals in memory
     trace off PATH  remove it and write the totals to PATH

   End of file on the control pipe shuts the daemon down (drain, then
   exit). *)

type t = {
  pid : int;
  socket : string;
  ctl : out_channel;
  ack : in_channel;
  mutable stopped : bool;
}

let config ~catalog_dir ~socket =
  Serve.Server.default_config ~catalog_dir ~socket_path:socket

let memory_sink spans =
  let lock = Mutex.create () in
  let numeric attrs =
    List.filter_map
      (fun (k, v) ->
        match v with
        | Obs.Trace.Int i -> Some (k, float_of_int i)
        | Obs.Trace.Float f -> Some (k, f)
        | Obs.Trace.Bool b -> Some (k, if b then 1. else 0.)
        | Obs.Trace.Str _ -> None)
      attrs
  in
  let emit ev =
    Mutex.lock lock;
    (match ev with
    | Obs.Trace.Begin { id; parent; name; ts } ->
        Perfstat.span_begin spans ~id ~parent ~name ~ts
    | Obs.Trace.End { id; name; ts; attrs } ->
        Perfstat.span_end spans ~id ~name ~ts ~attrs:(numeric attrs)
    | Obs.Trace.Instant _ -> ());
    Mutex.unlock lock
  in
  { Obs.Trace.emit; flush = (fun () -> ()) }

(* [--daemon CATALOG_DIR SOCKET] *)
let main ~catalog_dir ~socket =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* acknowledgements keep the original standard output; the server's
     own messages go to /dev/null *)
  let ack = Unix.out_channel_of_descr (Unix.dup Unix.stdout) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Unix.dup2 devnull Unix.stdout;
  match Serve.Server.start (config ~catalog_dir ~socket) with
  | Error e ->
      prerr_endline ("oqfbench --daemon: " ^ e);
      exit 2
  | Ok server ->
      let spans = ref (Perfstat.spans ()) in
      let rec loop () =
        match input_line stdin with
        | exception End_of_file -> ()
        | line ->
            (match line with
            | "reset" -> Obs.Metrics.reset_all ()
            | "trace on" ->
                spans := Perfstat.spans ();
                Obs.Trace.set_sink (Some (memory_sink !spans))
            | cmd when String.starts_with ~prefix:"trace off " cmd ->
                Obs.Trace.set_sink None;
                let path = String.sub cmd 10 (String.length cmd - 10) in
                Out_channel.with_open_bin path (fun oc ->
                    output_string oc (Perfstat.render_spans !spans))
            | _ -> ());
            output_string ack "ok\n";
            flush ack;
            loop ()
      in
      loop ();
      Serve.Server.request_shutdown server;
      Serve.Server.wait server;
      exit 0

(* Daemons not yet stopped. *)
let live : t list ref = ref []

let spawn ~catalog_dir ~socket =
  let ctl_r, ctl_w = Unix.pipe ~cloexec:true () in
  let ack_r, ack_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; "--daemon"; catalog_dir; socket |] ctl_r
      ack_w Unix.stderr
  in
  Unix.close ctl_r;
  Unix.close ack_w;
  let d =
    {
      pid;
      socket;
      ctl = Unix.out_channel_of_descr ctl_w;
      ack = Unix.in_channel_of_descr ack_r;
      stopped = false;
    }
  in
  live := d :: !live;
  d

let command t cmd =
  output_string t.ctl (cmd ^ "\n");
  flush t.ctl;
  match input_line t.ack with
  | "ok" -> ()
  | other -> failwith ("daemon control: " ^ other)
  | exception End_of_file -> failwith "daemon control: the daemon exited"

(* Peak resident set of the daemon so far, in MiB. *)
let peak_rss_mb t =
  let status =
    In_channel.with_open_bin (Printf.sprintf "/proc/%d/status" t.pid)
      In_channel.input_all
  in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.
          | [] -> acc)
      | _ -> acc)
    nan
    (String.split_on_char '\n' status)

(* Drain and reap the daemon; a daemon that has not exited after
   [grace_s] is killed. *)
let grace_s = 15.

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    live := List.filter (fun d -> d != t) !live;
    close_out_noerr t.ctl;
    let deadline = Unix.gettimeofday () +. grace_s in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.01;
          reap ()
      | 0, _ ->
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] t.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    reap ();
    close_in_noerr t.ack
  end

let stop_all () = List.iter stop !live
