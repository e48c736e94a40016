(* serve-mixed: a real [dpa serve] daemon, spawned as a child process
   (so client and daemon never share an OCaml runtime lock) and driven by
   a closed loop of two connections: each sends its next request only
   once the previous one's stream has ended, because [dpa serve] callers
   wait for their stream.

   The [--seed]ed mix: 75% analyze of a built-in circuit (c17 3 : c95 2 :
   alu74181 2 : c499 1), answered from the LRU and replayed from the
   journals written during set-up; 15% analyze of a fresh inline
   [Generate.random] netlist (14 inputs, 90 gates, 6 outputs), an LRU
   miss that is parsed, built, swept and journaled; 10% lint.  Journal
   reads thus run beside journal writes. *)

open Metrics
open Workloads

type kind = Builtin of string | Fresh of { title : string; source : string } | Lint of string

type request = {
  number : int;
  kind : kind;
  conn : int;
  sent : float;
  mutable ack : float option;
  mutable first : float option;
  mutable finished : float option;
  mutable faults : int;  (** announced in the ack *)
  mutable coalesced : bool;
  mutable lines : (int * string) list;  (** index, journal-line bytes, newest first *)
  mutable resumed : int;
  mutable elapsed_ms : float option;  (** the daemon's own sweep time, from [done] *)
  mutable error : string option;
}

type scale_params = {
  builtins : (string * int) list;  (** circuit, weight *)
  inputs : int;
  gates : int;
  outputs : int;
}

let params = function
  | Full ->
    {
      builtins = [ ("c17", 3); ("c95", 2); ("alu74181", 2); ("c499", 1) ];
      inputs = 14;
      gates = 90;
      outputs = 6;
    }
  | Mini -> { builtins = [ ("c17", 1) ]; inputs = 6; gates = 20; outputs = 3 }

(* The [k]-th request of the seeded mix; the same seed gives the same
   sequence whichever connection ends up sending each request.  Requests
   are dealt from shuffled decks, so every run sends each kind in the
   same share: per unit of a built-in circuit's weight, 15 analyze
   requests, 2 lints and 3 fresh netlists (75%, 10% and 15%).  Drawn one
   by one, the shares would vary from seed to seed, and every latency
   with them, since the fresh netlists take most of the daemon's time. *)
let nth_kind p ~seed k =
  let deck =
    Array.of_list
      (List.concat_map
         (fun (c, w) ->
           List.init (15 * w) (fun _ -> `Analyze c)
           @ List.init (2 * w) (fun _ -> `Lint c)
           @ List.init (3 * w) (fun _ -> `Fresh))
         p.builtins)
  in
  let n = Array.length deck in
  Prng.shuffle (Prng.create ~seed:(-((seed * 1_000_003) + (k / n)) - 1)) deck;
  match deck.(k mod n) with
  | `Analyze c -> Builtin c
  | `Lint c -> Lint c
  | `Fresh ->
    let rng = Prng.create ~seed:((seed * 1_000_003) + k) in
    let title = Printf.sprintf "rnd%d_%d" seed k in
    let c =
      Generate.random ~seed:(Prng.int rng 1_000_000_000) ~inputs:p.inputs ~gates:p.gates
        ~outputs:p.outputs
    in
    Fresh { title; source = Bench_format.print (Circuit.retitle c title) }

let request_line r =
  let id = string_of_int r.number in
  match r.kind with
  | Builtin c -> Protocol.analyze_request ~id (Protocol.Named c)
  | Fresh { title; source } -> Protocol.analyze_request ~id (Protocol.Inline { title; source })
  | Lint c -> Protocol.lint_request ~id (Protocol.Named c)

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                    *)

type daemon = { pid : int; socket : string }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

(* Readiness is polled every millisecond, so set-up time is not rounded
   up to a coarse retry step. *)
let spawn cfg ~index =
  let state = Filename.concat cfg.work_dir (Printf.sprintf "state%d" index) in
  let socket = Filename.concat cfg.work_dir (Printf.sprintf "dpa%d.sock" index) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process cfg.dpa
      [| cfg.dpa; "serve"; "--socket"; socket; "--state-dir"; state; "--workers"; "2" |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  let deadline = now () +. 20. in
  let rec wait () =
    match connect socket with
    | Some fd -> fd
    | None ->
      if now () > deadline then begin
        ignore (Proc.wait_until pid ~deadline:0.);
        failwith "dpa serve did not start listening"
      end;
      Unix.sleepf 0.001;
      wait ()
  in
  ({ pid; socket }, wait ())

(* Ask for a drain, then reap; a daemon that does not exit is killed. *)
let stop d =
  (match connect d.socket with
  | Some fd ->
    let line = Protocol.simple_request ~id:"stop" "shutdown" ^ "\n" in
    (try ignore (Unix.write_substring fd line 0 (String.length line)) with Unix.Unix_error _ -> ());
    Unix.close fd
  | None -> ( try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  ignore (Proc.wait_until d.pid ~deadline:(now () +. 30.))

(* ------------------------------------------------------------------ *)
(* Line-oriented non-blocking connections                              *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; mutable current : request option }

let send_line fd line =
  let line = line ^ "\n" in
  let rec go off =
    if off < String.length line then go (off + Unix.write_substring fd line off (String.length line - off))
  in
  go 0

let chunk = Bytes.create 65536

(* Read what is available; return the complete lines, or [None] on EOF. *)
let read_lines c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> None
  | n ->
    Buffer.add_subbytes c.buf chunk 0 n;
    let text = Buffer.contents c.buf in
    let parts = String.split_on_char '\n' text in
    let rec split = function
      | [ tail ] ->
        Buffer.clear c.buf;
        Buffer.add_string c.buf tail;
        []
      | l :: rest -> l :: split rest
      | [] -> []
    in
    Some (split parts)

(* Apply one response line to the connection's in-flight request;
   [true] when the request's stream has ended. *)
let on_line r line =
  let t = now () in
  match Protocol.parse_response line with
  | Ok (Protocol.Ack { faults; coalesced; _ }) ->
    r.ack <- Some t;
    r.faults <- faults;
    r.coalesced <- coalesced;
    false
  | Ok (Protocol.Outcome { index; journal_line; _ }) ->
    if r.first = None then r.first <- Some t;
    r.lines <- (index, journal_line) :: r.lines;
    false
  | Ok (Protocol.Finding _) ->
    if r.first = None then r.first <- Some t;
    false
  | Ok (Protocol.Done { resumed; _ }) ->
    r.finished <- Some t;
    r.resumed <- resumed;
    r.elapsed_ms <-
      Option.bind (Journal.parse_flat_object line) (fun f -> Journal.field_float f "elapsed_ms");
    true
  | Ok (Protocol.Busy _) ->
    r.error <- Some "busy";
    true
  | Ok (Protocol.Error_response { code; message; _ }) ->
    r.error <- Some (code ^ ": " ^ message);
    true
  | Ok _ ->
    r.error <- Some ("unexpected response " ^ line);
    true
  | Error msg ->
    r.error <- Some ("corrupt stream: " ^ msg);
    true

(* Drive the connections in a closed loop: each sends [next ()] as soon as
   its previous stream has ended, until [next] runs dry or [window_end]
   passes; in-flight requests then finish, and anything still open at
   [hard_end] is a timeout.  Returns every request sent, in order. *)
let closed_loop fds ~next ~window_end ~hard_end =
  let conns = List.map (fun fd -> { fd; buf = Buffer.create 4096; current = None }) fds in
  let sent = ref [] and count = ref 0 in
  let dispatch i c =
    c.current <- None;
    if now () < window_end then
      Option.iter
        (fun kind ->
          let r =
            {
              number = !count;
              kind;
              conn = i;
              sent = now ();
              ack = None;
              first = None;
              finished = None;
              faults = 0;
              coalesced = false;
              lines = [];
              resumed = 0;
              elapsed_ms = None;
              error = None;
            }
          in
          incr count;
          sent := r :: !sent;
          try
            send_line c.fd (request_line r);
            c.current <- Some r
          with Unix.Unix_error (e, _, _) -> r.error <- Some ("send: " ^ Unix.error_message e))
        (next ())
  in
  List.iteri dispatch conns;
  let rec loop () =
    let live = List.filter (fun c -> c.current <> None) conns in
    let remaining = hard_end -. now () in
    if live <> [] && remaining > 0. then begin
      let ready =
        match Unix.select (List.map (fun c -> c.fd) live) [] [] remaining with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iteri
        (fun i c ->
          match c.current with
          | Some r when List.mem c.fd ready -> (
            match read_lines c with
            | exception Unix.Unix_error (e, _, _) ->
              r.error <- Some ("read: " ^ Unix.error_message e);
              c.current <- None
            | None ->
              r.error <- Some "connection closed mid-stream";
              c.current <- None
            | Some lines -> if List.exists (fun l -> l <> "" && on_line r l) lines then dispatch i c)
          | _ -> ())
        conns;
      loop ()
    end
  in
  loop ();
  List.iter
    (fun c -> Option.iter (fun r -> if r.error = None then r.error <- Some "timed out") c.current)
    conns;
  List.rev !sent

let from_list l =
  let rest = ref l in
  fun () ->
    match !rest with
    | x :: tail ->
      rest := tail;
      Some x
    | [] -> None

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)

let latency r = Option.map (fun f -> f -. r.sent) r.finished

let stats_fields fd =
  send_line fd (Protocol.simple_request ~id:"stats" "stats");
  let c = { fd; buf = Buffer.create 1024; current = None } in
  let rec go () =
    match read_lines c with
    | None -> []
    | Some lines -> (
      match
        List.find_map
          (fun l ->
            match Protocol.parse_response l with
            | Ok (Protocol.Stats_response { fields; _ }) -> Some fields
            | _ -> None)
          lines
      with
      | Some f -> f
      | None -> go ())
  in
  go ()

(* A fresh inline request as the daemon serves it — parse, fault list,
   engine, journaled deterministic Snapshot sweep — replayed in the
   benchmark process with the per-fault sample, so serve-mixed reports
   the same layer metrics as the sweeps. *)
let replay_fresh cfg acc ~index ~title ~source =
  let s =
    set_up ~parse:(fun () -> Bench_format.parse ~title source) ~faults_of:(fun c -> [ stuck_faults c ])
  in
  let faults = List.concat s.groups in
  let path = Filename.concat cfg.work_dir (Printf.sprintf "replay%d.jsonl" index) in
  let journal = open_journal ~sync_every:8 ~path s.circuit faults in
  let call =
    sweep ~deterministic:true ~journal ~scheduler:Engine.Snapshot
      ~host:(Hostspeed.create ~active:false) s.engine faults
  in
  let layers = call_layers [ call ] @ journal_layers journal in
  record_layers acc (s.layers @ layers @ replay_sample s.engine faults)

let check_streams cfg ck requests =
  let p = params cfg.scale in
  let by_builtin = Hashtbl.create 8 in
  let fresh = ref [] in
  List.iter
    (fun r ->
      if r.error = None then begin
        let lines = List.rev r.lines in
        (match r.kind with
        | Lint _ -> ()
        | Builtin _ | Fresh _ ->
          check ck
            (List.map fst lines = List.init r.faults Fun.id)
            "request %d: the stream does not carry each of its %d fault indices once, in order"
            r.number r.faults);
        let payload = List.map snd lines in
        match r.kind with
        | Builtin c ->
          Hashtbl.replace by_builtin c
            (digest_lines payload :: Option.value (Hashtbl.find_opt by_builtin c) ~default:[])
        | Fresh { title; source } -> fresh := (title, source, payload) :: !fresh
        | Lint _ -> ()
      end)
    requests;
  List.iter
    (fun (c, _) ->
      match Hashtbl.find_opt by_builtin c with
      | None -> ()
      | Some ds ->
        check ck (List.length (List.sort_uniq compare ds) = 1) "serve %s: streams differ" c;
        check_digest cfg ck ("serve-mixed/" ^ c) (List.hd ds))
    p.builtins;
  (* Exhaustive simulation against 64 seeded inline-netlist faults. *)
  let fresh = Array.of_list (List.rev !fresh) in
  if Array.length fresh > 0 then begin
    let rng = Prng.create ~seed:(cfg.seed * 15485863) in
    let parsed = Hashtbl.create 16 in
    for _ = 1 to 64 do
      let title, source, payload = fresh.(Prng.int rng (Array.length fresh)) in
      let c, faults =
        match Hashtbl.find_opt parsed title with
        | Some v -> v
        | None ->
          let c = Bench_format.parse ~title source in
          let v = (c, Array.of_list (stuck_faults c)) in
          Hashtbl.replace parsed title v;
          v
      in
      let line = List.nth payload (Prng.int rng (List.length payload)) in
      match Journal.outcome_of_line ~faults line with
      | Some (_, Engine.Exact r) -> exhaustive_check ck c r
      | _ -> check ck false "%s: unreadable or inexact outcome %s" title line
    done
  end

(* Layer metrics of the timed phase, from client timestamps, the [done]
   lines and one [stats] request. *)
let serve_layers ~stats ~wall ok =
  let field k = match List.assoc_opt k stats with Some (Journal.I n) -> float_of_int n | _ -> 0. in
  let is_lint r = match r.kind with Lint _ -> true | _ -> false in
  let analyses = List.filter (fun r -> not (is_lint r)) ok in
  let per_analysis x = x /. float_of_int (max 1 (List.length analyses)) in
  let p50 rs = match List.filter_map latency rs with [] -> 0. | l -> Stats.percentile 50. l in
  let ratio keep = if p50 ok > 0. then p50 (List.filter keep ok) /. p50 ok else 0. in
  let share f =
    match
      ( List.filter_map (fun r -> Option.map (fun t -> t -. r.sent) (f r)) analyses,
        List.filter_map latency analyses )
    with
    | (_ :: _ as part), (_ :: _ as whole) -> Stats.median part /. Stats.median whole
    | _ -> 0.
  in
  let hits = field "cache_hits" and misses = field "cache_misses" in
  let lines = List.fold_left (fun a r -> a + List.length r.lines) 0 analyses in
  let resumed = List.fold_left (fun a r -> a + r.resumed) 0 analyses in
  [
    ("serve.req_per_s", float_of_int (List.length ok) /. wall);
    ("serve.ack_share", share (fun r -> r.ack));
    ("serve.first_outcome_share", share (fun r -> r.first));
    ("serve.fresh_p50_ratio", ratio (fun r -> match r.kind with Fresh _ -> true | _ -> false));
    ("serve.replay_p50_ratio", ratio (fun r -> match r.kind with Builtin _ -> true | _ -> false));
    ("serve.lint_p50_ratio", ratio is_lint);
    ( "serve.sweep_elapsed_share",
      match
        List.filter_map
          (fun r ->
            match (r.elapsed_ms, latency r) with
            | Some e, Some l when l > 0. -> Some (e /. 1000. /. l)
            | _ -> None)
          analyses
      with
      | [] -> 0.
      | l -> Stats.median l );
    ("lru.hit_rate", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
    ("lru.eviction_rate", per_analysis (field "cache_evictions"));
    ("server.queue_reorder_rate", field "queue_reorders" /. float_of_int (max 1 (List.length ok)));
    ("server.coalesced_rate", per_analysis (float_of_int (List.length (List.filter (fun r -> r.coalesced) analyses))));
    ("journal.resumed_share", if lines = 0 then 0. else float_of_int resumed /. float_of_int lines);
  ]

let daemon_setups = 5

(* Only set-up is corrected for host speed: the kernel runs before and
   after each set-up, while no daemon works.  The timed phase keeps both
   cores busy for the whole window, so the kernel could only run in
   pauses that would change the load; its times are raw. *)
let run cfg =
  let p = params cfg.scale in
  let acc = Acc.create () in
  let ck = checks () in
  let host = Hostspeed.create ~active:(not cfg.traced) in
  (* Set-up — spawn, readiness, one analyze per built-in circuit to fill
     the LRU and write the journals the timed phase replays — repeated
     [daemon_setups] times between runs of the host-speed kernel; the
     last daemon serves the timed phase. *)
  let set_up_once index =
    Hostspeed.probe host;
    let t0 = now () in
    let daemon, fd = spawn cfg ~index in
    let t_ready = now () in
    let warm =
      try
        closed_loop [ fd ]
          ~next:(from_list (List.map (fun (c, _) -> Builtin c) p.builtins))
          ~window_end:infinity ~hard_end:(now () +. 60.)
      with e ->
        Unix.close fd;
        stop daemon;
        raise e
    in
    let t1 = now () in
    Hostspeed.probe host;
    ignore (Trace.record ~start:t0 ~stop:t_ready "serve.spawn");
    ignore (Trace.record ~start:t_ready ~stop:t1 "serve.warm_up");
    (daemon, fd, (t0, t1), warm)
  in
  let setups =
    List.init daemon_setups (fun i ->
        let ((d, fd, _, _) as s) = set_up_once i in
        if i < daemon_setups - 1 then begin
          Unix.close fd;
          stop d
        end;
        s)
  in
  let daemon, fd0, _, _ = List.nth setups (daemon_setups - 1) in
  let warm = List.concat_map (fun (_, _, _, w) -> w) setups in
  let counter = ref 0 in
  let next () =
    let k = !counter in
    incr counter;
    Some (nth_kind p ~seed:cfg.seed k)
  in
  let requests, t0, t1, stats, rss_mb =
    Fun.protect
      ~finally:(fun () -> stop daemon)
      (fun () ->
        let fd1 =
          match connect daemon.socket with Some fd -> fd | None -> failwith "second connection refused"
        in
        let t0 = now () in
        let window_end = t0 +. cfg.seconds in
        let requests = closed_loop [ fd0; fd1 ] ~next ~window_end ~hard_end:(window_end +. 60.) in
        let t1 = List.fold_left (fun a r -> Float.max a (Option.value r.finished ~default:a)) t0 requests in
        let stats = stats_fields fd0 in
        let rss_mb = Option.value (Proc.peak_rss_mb (Some daemon.pid)) ~default:0. in
        Unix.close fd0;
        Unix.close fd1;
        (requests, t0, t1, stats, rss_mb))
  in
  let wall = t1 -. t0 in
  let failures = List.filter (fun r -> r.error <> None) (warm @ requests) in
  List.iter
    (fun r -> Option.iter (Printf.eprintf "serve request %d failed: %s\n%!" r.number) r.error)
    failures;
  let ok = List.filter (fun r -> r.error = None) requests in
  check_streams cfg ck (warm @ requests);
  let lines = List.concat_map (fun r -> r.lines) ok in
  let exact =
    List.length
      (List.filter
         (fun (_, l) ->
           Option.bind (Journal.parse_flat_object l) (fun f -> Journal.field_string f "o")
           = Some "exact")
         lines)
  in
  let metrics =
    if not cfg.traced then begin
      Hostspeed.log host "serve-mixed";
      let setup_s = Hostspeed.scale host in
      end_to_end
        ~setups:(List.map (fun (_, _, s, _) -> setup_s s) setups)
        ~rounds:[ (List.length lines, wall) ]
        ~latencies:(List.filter_map latency ok)
        ~exact ~answered:(List.length lines) ~rss_mb
    end
    else begin
      List.iter (fun (k, v) -> Acc.add acc k v) (serve_layers ~stats ~wall ok);
      (* Request spans — send to ack, ack to done — under one round for
         the timed phase.  They are recorded from the client's timestamps
         after the phase has ended, so tracing cannot perturb it, and
         trace.overhead_share is not recorded here. *)
      let round = Trace.record ~parent:0 ~start:t0 ~stop:t1 "round" in
      List.iter
        (fun r ->
          match (r.ack, r.finished) with
          | Some a, Some f ->
            let group = r.number + 1 and tid = r.conn + 1 in
            let id = Trace.record ~parent:round ~group ~tid ~start:r.sent ~stop:f "request" in
            ignore (Trace.record ~parent:id ~group ~tid ~start:r.sent ~stop:a "serve.ack");
            ignore (Trace.record ~parent:id ~group ~tid ~start:a ~stop:f "serve.stream")
          | _ -> ())
        ok;
      (* A fresh request's layers, replayed on the mix's first four inline
         netlists. *)
      List.iteri
        (fun index r ->
          match r.kind with
          | Fresh { title; source } when index < 4 ->
            Trace.with_span "round" (fun () -> replay_fresh cfg acc ~index ~title ~source)
          | _ -> ())
        (List.filter (fun r -> match r.kind with Fresh _ -> true | _ -> false) requests);
      record_trace_shares acc;
      per_layer_metrics cfg acc
    end
  in
  {
    correct = ck.bad = 0 && failures = [];
    attempted = List.length warm + List.length requests + ck.run;
    failed = List.length failures + ck.bad;
    metrics;
  }
