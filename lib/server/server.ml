(* The resident analysis daemon behind [dpa serve].

   One listener thread accepts connections (polling an atomic stop flag
   through a select timeout, so a signal can never wedge the accept
   loop); one reader thread per connection parses JSON-lines requests
   and either answers inline (ping/stats), rejects (busy/error), or
   enqueues work; a fixed pool of worker threads drains the bounded
   queue and runs sweeps and lints.  Analyze requests sharing a netlist
   digest and an options fingerprint coalesce into one sweep whose
   outcomes fan out to every subscriber, each prefixed with a replay of
   whatever had already streamed when it joined.

   Lock ordering (always acquired in this order, never the reverse):

     lint.acked  >  server.mu  >  sweep.smu  >  conn.wmu

   [lint.acked] holds a queued lint job back until its ack is written;
   [server.mu] guards admission state (queue, active-sweep table,
   counters); [sweep.smu] guards one sweep's payload buffer, streaming
   frontier and subscriber list; [conn.wmu] serialises writers on one
   socket.  Worker domains call the outcome hook concurrently, so the
   frontier flush takes [smu] without ever needing [mu].

   Durability: with a state directory configured, every sweep journals
   through lib/core's checkpoint machinery under the journal writer
   lock.  A SIGKILLed server restarted on the same state dir finds the
   journal by digest + settings fingerprint, loads the completed prefix,
   streams it back byte-identically (outcome payloads are the journal's
   own line bytes), and resumes computing from the first missing
   fault. *)

type socket_addr = Unix_socket of string | Tcp of string * int

type config = {
  socket : socket_addr;
  state_dir : string option;
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  sweep : Sweep_config.t;
      (* base settings of every sweep; requests overlay their own *)
  sync_every : int;  (* journal fsync batch size *)
  verbose : bool;
}

let default_config ~socket =
  {
    socket;
    state_dir = None;
    workers = 2;
    queue_capacity = 64;
    cache_capacity = 8;
    sweep = { Sweep_config.default with scheduler = Snapshot };
    sync_every = 8;
    verbose = false;
  }

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)

type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  wmu : Mutex.t;
  mutable open_ : bool;
}

(* A failed write marks the connection dead rather than raising into a
   worker: subscribers that vanish mid-sweep must not kill the sweep
   the remaining subscribers are waiting on. *)
let send conn line =
  Mutex.lock conn.wmu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wmu)
    (fun () ->
      if conn.open_ then
        try
          output_string conn.oc line;
          output_char conn.oc '\n';
          flush conn.oc
        with Sys_error _ | Unix.Unix_error _ -> conn.open_ <- false)

let close_conn conn =
  Mutex.lock conn.wmu;
  conn.open_ <- false;
  Mutex.unlock conn.wmu;
  (* A reader thread blocked mid-[input_line] is not woken by closing
     the fd — only a shutdown interrupts the in-progress read.  Without
     this, drain hangs until every idle client hangs up on its own. *)
  (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try close_out_noerr conn.oc with _ -> ());
  (try close_in_noerr conn.ic with _ -> ());
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Sweeps and jobs                                                     *)

type sweep = {
  key : string;  (* digest + "|" + fingerprint: the coalescing identity *)
  digest : string;
  circuit : Circuit.t;
  faults : Fault.t list;
  faults_arr : Fault.t array;
  config : Sweep_config.t;  (* the settings the sweep runs under *)
  n : int;
  payloads : string option array;
      (* journal-line bytes per fault index, filled as outcomes land *)
  mutable next : int;  (* streaming frontier: all < next already sent *)
  mutable subs : (conn * string) list;  (* connection, request id *)
  mutable resumed : int;  (* outcomes re-served from a recovered journal *)
  mutable finished : (int * int * int * int * int * float) option;
      (* exact, bounded, unbounded, crashed, rescued, elapsed_ms — set
         under [smu] when the sweep completes, so a subscriber racing
         the finish can self-serve its [done] line *)
  mutable failed : string option;
  smu : Mutex.t;
}

type job =
  | Sweep_job of sweep
  | Lint_job of {
      conn : conn;
      id : string;
      circuit : Circuit.t;
      acked : Mutex.t; (* see the lock ordering above *)
    }

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  bound : Unix.sockaddr;
  mu : Mutex.t;
  nonempty : Condition.t;
  queue : job Queue.t;
  active : (string, sweep) Hashtbl.t;
  cache : Lru.t;
  stop : bool Atomic.t;
  mutable accept_thread : Thread.t option;
  mutable workers : Thread.t list;
  mutable readers : Thread.t list;
  mutable conns : conn list;
  mutable served_sweeps : int;
  mutable served_lints : int;
  mutable rejected : int;
  mutable queue_reorders : int;
      (* sweeps promoted past the FIFO order by cache-aware admission *)
  mutable ewma_ms : float;  (* smoothed sweep wall time, for busy hints *)
  started_at : float;
}

let log t fmt =
  if t.config.verbose then
    Printf.ksprintf (fun s -> Printf.eprintf "[serve] %s\n%!" s) fmt
  else Printf.ksprintf ignore fmt

let port t =
  match Unix.getsockname t.listen_fd with
  | Unix.ADDR_INET (_, p) -> Some p
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Streaming                                                           *)

(* Flush the in-order frontier to every live subscriber.  Caller holds
   [smu].  Outcome lines splice the journal's exact bytes, so what a
   client strips back out of the envelope [cmp]-matches the journal. *)
let flush_frontier sweep =
  let rec go () =
    if sweep.next < sweep.n then
      match sweep.payloads.(sweep.next) with
      | None -> ()
      | Some journal_line ->
        List.iter
          (fun (conn, id) -> send conn (Protocol.outcome ~id journal_line))
          sweep.subs;
        sweep.next <- sweep.next + 1;
        go ()
  in
  go ()

let subscribe sweep conn id ~coalesced =
  Mutex.lock sweep.smu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sweep.smu)
    (fun () ->
      match sweep.failed with
      | Some message ->
        send conn (Protocol.error ~id:(Some id) ~code:"internal" message)
      | None ->
        send conn
          (Protocol.ack ~id ~op:"analyze" ~digest:sweep.digest
             ~faults:sweep.n ~coalesced);
        (* Replay the already-streamed prefix so every subscriber sees
           the identical full sequence regardless of when it joined. *)
        for i = 0 to sweep.next - 1 do
          match sweep.payloads.(i) with
          | Some journal_line -> send conn (Protocol.outcome ~id journal_line)
          | None -> ()
        done;
        (match sweep.finished with
        | Some (exact, bounded, unbounded, crashed, rescued, elapsed_ms) ->
          (* The sweep completed between admission and this subscribe:
             its broadcast already went out, so self-serve the [done]. *)
          send conn
            (Protocol.analyze_done ~id ~exact ~bounded ~unbounded ~crashed
               ~rescued ~resumed:sweep.resumed ~elapsed_ms)
        | None -> sweep.subs <- (conn, id) :: sweep.subs))

(* ------------------------------------------------------------------ *)
(* Sweep execution (worker side)                                       *)

let outcome_counts outcomes =
  let count p = List.length (List.filter p outcomes) in
  let exact = count Engine.is_exact in
  let bounded = count (function Engine.Bounded _ -> true | _ -> false) in
  let unbounded =
    count (function
      | Engine.Budget_exceeded _ | Engine.Deadline_exceeded _ -> true
      | _ -> false)
  in
  let crashed = count (function Engine.Crashed _ -> true | _ -> false) in
  let rescued =
    count (function
      | Engine.Exact r -> r.Engine.rescued_by_reorder
      | _ -> false)
  in
  (exact, bounded, unbounded, crashed, rescued)

(* Open (or recover) the journal for one sweep.  Returns the recovered
   index → outcome table, the sink to append to, and the writer lock to
   release afterwards.  A stale or corrupt journal is recreated rather
   than trusted; a journal whose writer lock is held by another live
   process downgrades the sweep to un-journaled (the daemon must stay
   available even when an external [dpa analyze --checkpoint] owns the
   file). *)
let open_journal t sweep =
  match t.config.state_dir with
  | None -> (Hashtbl.create 1, None, None)
  | Some dir -> (
    Journal.ensure_state_dir dir;
    let path =
      Journal.state_file ~dir ~digest:sweep.digest
        ~tag:(Sweep_config.fingerprint sweep.config)
    in
    match Journal.acquire_writer_lock ~path () with
    | Error reason ->
      log t "journal %s unavailable (%s); sweep runs un-journaled" path
        reason;
      (Hashtbl.create 1, None, None)
    | Ok lock ->
      let fresh () =
        ( Hashtbl.create 1,
          Some
            (Journal.create ~sync_every:t.config.sync_every ~path
               ~digest:sweep.digest ~faults:sweep.n ()),
          Some lock )
      in
      if Sys.file_exists path then (
        match
          Journal.load ~path ~digest:sweep.digest ~faults:sweep.faults_arr
        with
        | Ok table ->
          log t "resuming %s: %d of %d outcomes journaled" path
            (Hashtbl.length table) sweep.n;
          ( table,
            Some (Journal.reopen ~sync_every:t.config.sync_every ~path ()),
            Some lock )
        | Error reason ->
          log t "discarding journal %s: %s" path reason;
          fresh ())
      else fresh ())

let run_sweep_job t sweep =
  let t0 = Unix.gettimeofday () in
  let entry =
    Lru.checkout t.cache ~digest:sweep.digest ~circuit:sweep.circuit
      ~faults:sweep.faults
  in
  let entry = match entry with `Cached e | `Fresh e -> e in
  let table, sink, lock = open_journal t sweep in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Journal.close sink;
      Option.iter Journal.release_writer_lock lock;
      Lru.checkin t.cache entry)
    (fun () ->
      (* Re-serve the recovered prefix before computing anything: the
         payload bytes are the journal's own lines, so a client diffing
         this stream against an uninterrupted run sees no difference. *)
      Mutex.lock sweep.smu;
      Hashtbl.iter
        (fun i o -> sweep.payloads.(i) <- Some (Journal.outcome_line i o))
        table;
      sweep.resumed <- Hashtbl.length table;
      flush_frontier sweep;
      Mutex.unlock sweep.smu;
      let journal = Journal.engine_journal ?sink table in
      let on_outcome i o =
        (* Called from worker domains, after the journal append: the
           outcome is durable before it is visible on any socket. *)
        Mutex.lock sweep.smu;
        sweep.payloads.(i) <- Some (Journal.outcome_line i o);
        flush_frontier sweep;
        Mutex.unlock sweep.smu
      in
      let outcomes, _ =
        Engine.sweep ~config:sweep.config ~journal ~on_outcome
          entry.Lru.engine sweep.faults
      in
      let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      (* Unregister before announcing completion: once [done] lines go
         out no new subscriber may latch onto this sweep, or it would
         never receive its own [done]. *)
      Mutex.lock t.mu;
      Hashtbl.remove t.active sweep.key;
      t.served_sweeps <- t.served_sweeps + 1;
      t.ewma_ms <- (0.8 *. t.ewma_ms) +. (0.2 *. elapsed_ms);
      Mutex.unlock t.mu;
      let exact, bounded, unbounded, crashed, rescued =
        outcome_counts outcomes
      in
      Mutex.lock sweep.smu;
      flush_frontier sweep;
      sweep.finished <-
        Some (exact, bounded, unbounded, crashed, rescued, elapsed_ms);
      List.iter
        (fun (conn, id) ->
          send conn
            (Protocol.analyze_done ~id ~exact ~bounded ~unbounded ~crashed
               ~rescued ~resumed:sweep.resumed ~elapsed_ms))
        sweep.subs;
      sweep.subs <- [];
      Mutex.unlock sweep.smu;
      log t "sweep %s: %d faults in %.1f ms (%d resumed)" sweep.digest
        sweep.n elapsed_ms sweep.resumed)

let fail_sweep t sweep exn =
  Mutex.lock t.mu;
  Hashtbl.remove t.active sweep.key;
  Mutex.unlock t.mu;
  let message = Printexc.to_string exn in
  Mutex.lock sweep.smu;
  sweep.failed <- Some message;
  List.iter
    (fun (conn, id) ->
      send conn (Protocol.error ~id:(Some id) ~code:"internal" message))
    sweep.subs;
  sweep.subs <- [];
  Mutex.unlock sweep.smu;
  log t "sweep %s failed: %s" sweep.digest message

let run_lint_job t ~conn ~id circuit =
  let t0 = Unix.gettimeofday () in
  let diags = Lint.run circuit in
  List.iter (fun d -> send conn (Protocol.finding ~id d)) diags;
  let count sev =
    List.length
      (List.filter (fun d -> d.Diagnostic.severity = sev) diags)
  in
  send conn
    (Protocol.lint_done ~id ~errors:(count Diagnostic.Error)
       ~warnings:(count Diagnostic.Warning) ~infos:(count Diagnostic.Info)
       ~elapsed_ms:((Unix.gettimeofday () -. t0) *. 1000.0));
  Mutex.lock t.mu;
  t.served_lints <- t.served_lints + 1;
  Mutex.unlock t.mu

(* Cache-aware admission: prefer the earliest queued sweep whose digest
   is resident and idle in the LRU — serving it next checks out the
   warm arena instead of building a fresh engine (and before the entry
   can be evicted by interleaved other-digest sweeps).  Strict FIFO
   otherwise, so nothing starves: a promoted job only ever jumps ahead
   of jobs that would have missed the cache anyway.  Called with
   [t.mu] held and the queue non-empty. *)
let pop_preferred t =
  let jobs = List.of_seq (Queue.to_seq t.queue) in
  let preferred =
    let rec go i = function
      | [] -> None
      | Sweep_job s :: _ when Lru.resident t.cache s.digest -> Some i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 jobs
  in
  match preferred with
  | Some i when i > 0 ->
    Queue.clear t.queue;
    List.iteri (fun j job -> if j <> i then Queue.push job t.queue) jobs;
    t.queue_reorders <- t.queue_reorders + 1;
    List.nth jobs i
  | _ -> Queue.pop t.queue

let rec worker_loop t =
  Mutex.lock t.mu;
  while Queue.is_empty t.queue && not (Atomic.get t.stop) do
    Condition.wait t.nonempty t.mu
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.mu
    (* stopping and fully drained: in-flight work all completed *)
  else begin
    let job = pop_preferred t in
    Mutex.unlock t.mu;
    (match job with
    | Sweep_job sweep -> (
      try run_sweep_job t sweep with exn -> fail_sweep t sweep exn)
    | Lint_job { conn; id; circuit; acked } -> (
      Mutex.lock acked;
      Mutex.unlock acked;
      try run_lint_job t ~conn ~id circuit
      with exn ->
        send conn
          (Protocol.error ~id:(Some id) ~code:"internal"
             (Printexc.to_string exn))));
    worker_loop t
  end

(* ------------------------------------------------------------------ *)
(* Admission (reader side)                                             *)

let resolve_spec spec =
  match spec with
  | Protocol.Named name -> (
    try Ok (Bench_suite.find name)
    with Not_found ->
      Error (Printf.sprintf "unknown benchmark circuit %S" name))
  | Protocol.Inline { title; source } -> (
    try Ok (Bench_format.parse ~title source) with
    | Bench_format.Parse_error (span, msg) ->
      Error
        (Printf.sprintf "netlist:%d:%d: %s" span.Bench_format.line
           span.Bench_format.start_col msg)
    | Circuit.Malformed msg | Seq_circuit.Malformed msg ->
      Error (Printf.sprintf "netlist: %s" msg))

(* Admission verdicts are decided under [t.mu] but all socket writes
   happen after it is released — the lock order forbids taking a
   connection mutex inside [t.mu] while a sweep also needs [smu]. *)
type verdict =
  | Admitted of { sweep : sweep; coalesced : sweep option }
  | Rejected_busy of { queued : int; retry_after_ms : int }
  | Rejected_draining

(* The settings a request's sweep actually runs under: the daemon's base
   settings, the request's wire fields, and, for a journaled sweep, the
   settings byte-identical resume needs ([Sweep_config.journaled]).
   Coalescing and the journal file are keyed on this config's
   fingerprint, so two requests share a sweep only when every setting
   that can change an outcome matches. *)
let effective_config t (wire : Sweep_config.t) =
  let config =
    {
      t.config.sweep with
      fault_budget = wire.fault_budget;
      deadline_ms = wire.deadline_ms;
      max_retries = wire.max_retries;
      bound_samples = wire.bound_samples;
    }
  in
  if t.config.state_dir = None then config else Sweep_config.journaled config

let admit_analyze t conn id circuit wire =
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults circuit)
  in
  let digest = Journal.digest circuit faults in
  let config = effective_config t wire in
  let key = digest ^ "|" ^ Sweep_config.fingerprint config in
  let verdict =
    Mutex.lock t.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mu)
      (fun () ->
        if Atomic.get t.stop then Rejected_draining
        else
          match Hashtbl.find_opt t.active key with
          | Some sweep ->
            Admitted { sweep; coalesced = Some sweep }
          | None ->
            let queued = Queue.length t.queue in
            if queued >= t.config.queue_capacity then begin
              t.rejected <- t.rejected + 1;
              let retry_after_ms =
                max 100
                  (int_of_float
                     (t.ewma_ms *. float_of_int (queued + 1)
                     /. float_of_int (max 1 t.config.workers)))
              in
              Rejected_busy { queued; retry_after_ms }
            end
            else begin
              let n = List.length faults in
              let sweep =
                {
                  key;
                  digest;
                  circuit;
                  faults;
                  faults_arr = Array.of_list faults;
                  config;
                  n;
                  payloads = Array.make n None;
                  next = 0;
                  subs = [];
                  resumed = 0;
                  finished = None;
                  failed = None;
                  smu = Mutex.create ();
                }
              in
              Hashtbl.add t.active key sweep;
              Queue.push (Sweep_job sweep) t.queue;
              Condition.signal t.nonempty;
              Admitted { sweep; coalesced = None }
            end)
  in
  match verdict with
  | Admitted { sweep; coalesced } ->
    subscribe sweep conn id ~coalesced:(coalesced <> None)
  | Rejected_busy { queued; retry_after_ms } ->
    send conn
      (Protocol.busy ~id ~queued ~capacity:t.config.queue_capacity
         ~retry_after_ms)
  | Rejected_draining ->
    send conn
      (Protocol.error ~id:(Some id) ~code:"draining"
         "server is draining; no new work accepted")

let admit_lint t conn id circuit =
  (* A worker may pop the job as soon as [t.mu] is released; [acked]
     holds it back until the ack is on the wire. *)
  let acked = Mutex.create () in
  Mutex.lock acked;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock acked)
    (fun () ->
      let verdict =
        Mutex.lock t.mu;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.mu)
          (fun () ->
            if Atomic.get t.stop then `Draining
            else begin
              let queued = Queue.length t.queue in
              if queued >= t.config.queue_capacity then begin
                t.rejected <- t.rejected + 1;
                `Busy queued
              end
              else begin
                Queue.push (Lint_job { conn; id; circuit; acked }) t.queue;
                Condition.signal t.nonempty;
                `Admitted
              end
            end)
      in
      match verdict with
      | `Admitted ->
        send conn
          (Protocol.ack ~id ~op:"lint"
             ~digest:(Journal.digest circuit [])
             ~faults:0 ~coalesced:false)
      | `Busy queued ->
        send conn
          (Protocol.busy ~id ~queued ~capacity:t.config.queue_capacity
             ~retry_after_ms:(max 100 (int_of_float t.ewma_ms)))
      | `Draining ->
        send conn
          (Protocol.error ~id:(Some id) ~code:"draining"
             "server is draining; no new work accepted"))

let stats_line t id =
  let lru = Lru.stats t.cache in
  let active, queued, sweeps, lints, rejected, reorders =
    Mutex.lock t.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mu)
      (fun () ->
        ( Hashtbl.length t.active,
          Queue.length t.queue,
          t.served_sweeps,
          t.served_lints,
          t.rejected,
          t.queue_reorders ))
  in
  Protocol.stats ~id
    [
      ("uptime_s",
       Printf.sprintf "%.1f" (Unix.gettimeofday () -. t.started_at));
      ("sweeps", string_of_int sweeps);
      ("lints", string_of_int lints);
      ("rejected", string_of_int rejected);
      ("active", string_of_int active);
      ("queued", string_of_int queued);
      ("queue_capacity", string_of_int t.config.queue_capacity);
      ("queue_reorders", string_of_int reorders);
      ("workers", string_of_int t.config.workers);
      ("cache_resident", string_of_int lru.Lru.resident);
      ("cache_hits", string_of_int lru.Lru.hits);
      ("cache_misses", string_of_int lru.Lru.misses);
      ("cache_evictions", string_of_int lru.Lru.evictions);
    ]

let request_stop t =
  (* Async-signal-tolerant: one atomic store, no locks.  The accept
     loop polls the flag every 250 ms and performs the wakeups from an
     ordinary thread context. *)
  Atomic.set t.stop true

let handle_line t conn line =
  match Protocol.parse_request line with
  | Error (id, msg) -> send conn (Protocol.error ~id ~code:"bad_request" msg)
  | Ok (Protocol.Ping { id }) -> send conn (Protocol.pong ~id)
  | Ok (Protocol.Stats { id }) -> send conn (stats_line t id)
  | Ok (Protocol.Shutdown { id }) ->
    (* Acknowledged, then drained: queued and in-flight work completes
       before the process exits. *)
    send conn (Protocol.pong ~id);
    request_stop t
  | Ok (Protocol.Lint { id; spec }) -> (
    match resolve_spec spec with
    | Error msg ->
      send conn (Protocol.error ~id:(Some id) ~code:"bad_circuit" msg)
    | Ok circuit -> admit_lint t conn id circuit)
  | Ok (Protocol.Analyze { id; spec; config }) -> (
    match resolve_spec spec with
    | Error msg ->
      send conn (Protocol.error ~id:(Some id) ~code:"bad_circuit" msg)
    | Ok circuit -> admit_analyze t conn id circuit config)

(* Does any in-flight sweep still stream to this connection? *)
let conn_subscribed t conn =
  let sweeps =
    Mutex.lock t.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mu)
      (fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) t.active [])
  in
  List.exists
    (fun s ->
      Mutex.lock s.smu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock s.smu)
        (fun () -> List.exists (fun (c, _) -> c == conn) s.subs))
    sweeps

let reader t conn =
  (try
     while conn.open_ && not (Atomic.get t.stop) do
       let line = input_line conn.ic in
       if String.trim line <> "" then handle_line t conn line
     done
   with End_of_file | Sys_error _ -> ());
  (* EOF on the request side.  A client that half-closed its write end
     may still be reading an in-flight sweep's stream, so only close
     the connection when nothing subscribes to it any more; otherwise
     [send]'s dead-socket handling and drain-time cleanup cover it. *)
  if not (conn_subscribed t conn) then close_conn conn

let rec accept_loop t =
  if Atomic.get t.stop then begin
    (* Wake idle workers so they can observe the stop flag and drain. *)
    Mutex.lock t.mu;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mu
  end
  else begin
    (match Unix.select [ t.listen_fd ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept t.listen_fd with
      | fd, _ ->
        let conn =
          {
            fd;
            ic = Unix.in_channel_of_descr fd;
            oc = Unix.out_channel_of_descr fd;
            wmu = Mutex.create ();
            open_ = true;
          }
        in
        Mutex.lock t.mu;
        t.conns <- conn :: t.conns;
        t.readers <- Thread.create (fun () -> reader t conn) () :: t.readers;
        Mutex.unlock t.mu
      | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ());
    accept_loop t
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let listen_socket = function
  | Unix_socket path ->
    (* A socket file left behind by a SIGKILLed server would make bind
       fail; probe it and unlink only if nothing is accepting. *)
    (if Sys.file_exists path then
       let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       match Unix.connect probe (Unix.ADDR_UNIX path) with
       | () ->
         Unix.close probe;
         failwith
           (Printf.sprintf "socket %s already has a listening server" path)
       | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
         ->
         Unix.close probe;
         (try Sys.remove path with Sys_error _ -> ())
       | exception Unix.Unix_error _ -> Unix.close probe);
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    (fd, Unix.ADDR_UNIX path)
  | Tcp (host, port) ->
    let addr =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> Unix.inet_addr_loopback
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (addr, port));
    Unix.listen fd 64;
    (fd, Unix.getsockname fd)

let start config =
  (match Sweep_config.validate config.sweep with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Server.start: " ^ msg));
  Option.iter Journal.ensure_state_dir config.state_dir;
  let listen_fd, bound = listen_socket config.socket in
  let t =
    {
      config;
      listen_fd;
      bound;
      mu = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      active = Hashtbl.create 16;
      cache = Lru.create ~capacity:config.cache_capacity;
      stop = Atomic.make false;
      accept_thread = None;
      workers = [];
      readers = [];
      conns = [];
      served_sweeps = 0;
      served_lints = 0;
      rejected = 0;
      queue_reorders = 0;
      ewma_ms = 500.0;
      started_at = Unix.gettimeofday ();
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t.workers <-
    List.init (max 0 config.workers) (fun _ ->
        Thread.create (fun () -> worker_loop t) ());
  t

let wait t =
  Option.iter Thread.join t.accept_thread;
  (* Accept loop is down: no new connections, no new admissions (the
     stop flag rejects them).  Workers drain the queue to empty —
     every admitted sweep completes and streams its results — then
     exit. *)
  List.iter Thread.join t.workers;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.config.socket with
  | Unix_socket path -> ( try Sys.remove path with Sys_error _ -> ())
  | Tcp _ -> ());
  Mutex.lock t.mu;
  let conns = t.conns in
  t.conns <- [];
  let readers = t.readers in
  t.readers <- [];
  Mutex.unlock t.mu;
  List.iter close_conn conns;
  List.iter Thread.join readers

let stop t =
  request_stop t;
  wait t
