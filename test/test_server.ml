(* The dpa serve daemon: protocol round trips, the resident-engine LRU,
   admission control (busy rejections, coalescing), end-to-end request
   streams over a real Unix socket, deadline mapping, and graceful
   drain with in-flight work completing.  The SIGKILL-and-restart
   byte-identity property lives in test_journal.ml beside the other
   crash-resume properties. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dpa-serve-test-%d-%d" (Unix.getpid ()) (Random.int 100000))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p
      in
      try rm dir with _ -> ())
    (fun () -> f dir)

let with_server ?(workers = 1) ?(queue_capacity = 64) ?state_dir f =
  with_temp_dir (fun dir ->
      let sock = Filename.concat dir "dpa.sock" in
      let server =
        Server.start
          {
            (Server.default_config ~socket:(Server.Unix_socket sock)) with
            Server.workers;
            queue_capacity;
            state_dir;
          }
      in
      Fun.protect
        ~finally:(fun () -> Server.stop server)
        (fun () -> f server sock))

let stuck_faults c =
  List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)

let test_request_roundtrip () =
  let config =
    {
      Sweep_config.default with
      fault_budget = Some 500;
      (* Not representable in a short decimal: the wire must carry it
         exactly. *)
      deadline_ms = Some (0.1 +. (1.0 /. 3.0));
      max_retries = 3;
      bound_samples = 64;
    }
  in
  (match
     Protocol.parse_request
       (Protocol.analyze_request ~id:"r1" ~config (Protocol.Named "c17"))
   with
  | Ok (Protocol.Analyze { id; spec = Protocol.Named name; config = c }) ->
    check Alcotest.string "id" "r1" id;
    check Alcotest.string "circuit" "c17" name;
    check bool_t "wire settings survive" true (c = config)
  | _ -> Alcotest.fail "analyze request did not round trip");
  let source = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n" in
  (match
     Protocol.parse_request
       (Protocol.analyze_request ~id:"r2"
          (Protocol.Inline { title = "t\"x\""; source }))
   with
  | Ok
      (Protocol.Analyze
        { spec = Protocol.Inline { title; source = s }; config = c; _ }) ->
    check Alcotest.string "escaped title survives" "t\"x\"" title;
    check Alcotest.string "netlist text survives" source s;
    check bool_t "defaults filled" true (c = Sweep_config.default)
  | _ -> Alcotest.fail "inline analyze request did not round trip");
  (match Protocol.parse_request (Protocol.simple_request ~id:"p" "ping") with
  | Ok (Protocol.Ping { id }) -> check Alcotest.string "ping id" "p" id
  | _ -> Alcotest.fail "ping did not round trip");
  (* Rejections carry the id when one was readable. *)
  (match Protocol.parse_request "{\"id\":\"x\",\"op\":\"frobnicate\"}" with
  | Error (Some "x", _) -> ()
  | _ -> Alcotest.fail "unknown op should fail with the id");
  match Protocol.parse_request "{\"op\":\"ping\"}" with
  | Error (None, _) -> ()
  | _ -> Alcotest.fail "missing id should fail without one"

(* The envelope wrap/strip pair must preserve the journal line's exact
   bytes — the property the restart byte-identity guarantee rides on. *)
let test_outcome_envelope_inverse () =
  let c = Bench_suite.find "c17" in
  let faults = Array.of_list (stuck_faults c) in
  let awkward = 0.1 +. (1.0 /. 3.0) in
  let lines =
    [
      Journal.outcome_line 0
        (Engine.Exact
           {
             Engine.fault = faults.(0);
             detectability = awkward;
             test_count = 96.0;
             detectable = true;
             pos_fed = 1;
             pos_observed = 1;
             upper_bound = 0.5;
             adherence = Some (awkward /. 7.0);
             wired_support = None;
             test_set_nodes = 5;
             rescued_by_reorder = false;
           });
      Journal.outcome_line 3
        (Engine.Crashed
           { fault = faults.(3); message = "quotes \" and\nnewlines" });
    ]
  in
  List.iter
    (fun line ->
      let wrapped = Protocol.outcome ~id:"weird \"id\"" line in
      match Protocol.outcome_journal_line wrapped with
      | Some line' ->
        check Alcotest.string "journal bytes survive the envelope" line line'
      | None -> Alcotest.fail ("envelope did not strip: " ^ wrapped))
    lines

(* Each fingerprinted setting changed alone must change the
   fingerprint — including floats that a short decimal rendering would
   merge — while the scheduling settings must leave it alone.  Golden
   strings pin the rendering itself: checkpoint headers and state-file
   names written by earlier builds must keep matching. *)
let test_fingerprint_discriminates () =
  let d = Sweep_config.default in
  let fp = Sweep_config.fingerprint in
  check Alcotest.string "default fingerprint"
    "bnone-dnone-r2-o1-g0x1.3333333333333p+0-x1-s4096-k0" (fp d);
  check Alcotest.string "every fingerprinted setting changed"
    "b5000-d0x1.f5p+7-r3-o0-g0x1.8p+0-x0-s64-k1"
    (fp
       {
         d with
         fault_budget = Some 5000;
         deadline_ms = Some 250.5;
         max_retries = 3;
         reorder = false;
         reorder_growth = 1.5;
         bounds = false;
         bound_samples = 64;
       });
  (* Journals and state-dir files written before the canonical-arena
     switch was folded into the budget rendered this suffix from it;
     a budgeted sweep must keep rendering [k1] to stay resumable. *)
  check Alcotest.string "budgeted fingerprint keeps its on-disk form"
    "b50-dnone-r2-o1-g0x1.3333333333333p+0-x1-s4096-k1"
    (fp { d with fault_budget = Some 50 });
  let distinct name a b =
    check bool_t (name ^ " changes the fingerprint") true (fp a <> fp b)
  in
  let with_deadline ms = { d with deadline_ms = Some ms } in
  distinct "fault_budget" d { d with fault_budget = Some 100 };
  distinct "fault_budget value" { d with fault_budget = Some 100 }
    { d with fault_budget = Some 101 };
  distinct "deadline_ms" d (with_deadline 5.0);
  distinct "deadline_ms 1234567 vs 1234568" (with_deadline 1234567.0)
    (with_deadline 1234568.0);
  distinct "deadline_ms 0.10000001 vs 0.10000002" (with_deadline 0.10000001)
    (with_deadline 0.10000002);
  distinct "max_retries" d { d with max_retries = 0 };
  distinct "reorder" d { d with reorder = false };
  distinct "reorder_growth" d { d with reorder_growth = 1.2000001 };
  distinct "bounds" d { d with bounds = false };
  distinct "bound_samples" d { d with bound_samples = 64 };
  check Alcotest.string "domains leaves the fingerprint alone" (fp d)
    (fp { d with domains = 3 })

(* ------------------------------------------------------------------ *)
(* One validation rule set at every boundary                           *)

let test_validation_rules () =
  let d = Sweep_config.default in
  (* The config itself: every rule, plus the legal boundary values. *)
  List.iter
    (fun (name, config, legal) ->
      check bool_t name legal (Result.is_ok (Sweep_config.validate config)))
    [
      ("fault_budget -1", { d with fault_budget = Some (-1) }, false);
      ("fault_budget 0", { d with fault_budget = Some 0 }, true);
      ("deadline_ms 0", { d with deadline_ms = Some 0.0 }, false);
      ("deadline_ms -1", { d with deadline_ms = Some (-1.0) }, false);
      ("deadline_ms nan", { d with deadline_ms = Some Float.nan }, false);
      ("deadline_ms inf", { d with deadline_ms = Some Float.infinity }, false);
      ("deadline_ms 0.5", { d with deadline_ms = Some 0.5 }, true);
      ("max_retries -1", { d with max_retries = -1 }, false);
      ("max_retries 0", { d with max_retries = 0 }, true);
      ("bound_samples -1", { d with bound_samples = -1 }, false);
      ("bound_samples 0", { d with bound_samples = 0 }, true);
      ("reorder_growth 0.99", { d with reorder_growth = 0.99 }, false);
      ("reorder_growth nan", { d with reorder_growth = Float.nan }, false);
      ("reorder_growth inf", { d with reorder_growth = Float.infinity }, false);
      ("reorder_growth 1", { d with reorder_growth = 1.0 }, true);
      ("domains 0", { d with domains = 0 }, false);
      ("domains 1", { d with domains = 1 }, true);
    ];
  (* The engine refuses to run under an invalid config. *)
  let c17 = Bench_suite.find "c17" in
  check bool_t "Engine.sweep raises Invalid_argument" true
    (match
       Engine.sweep ~config:{ d with domains = 0 } (Engine.create c17)
         (stuck_faults c17)
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* The wire: an error response naming the id, for every rule a wire
     field reaches. *)
  List.iter
    (fun (field, legal) ->
      let line =
        Printf.sprintf "{\"id\":\"v\",\"op\":\"analyze\",\"circuit\":\"c17\",%s}"
          field
      in
      match Protocol.parse_request line with
      | Ok (Protocol.Analyze _) when legal -> ()
      | Error (Some "v", _) when not legal -> ()
      | _ ->
        Alcotest.fail
          (Printf.sprintf "wire %s: expected %s" field
             (if legal then "acceptance" else "an error")))
    [
      ("\"fault_budget\":-5", false);
      ("\"fault_budget\":0", true);
      ("\"deadline_ms\":0", false);
      ("\"deadline_ms\":-1", false);
      ("\"deadline_ms\":\"nan\"", false);
      ("\"deadline_ms\":\"inf\"", false);
      ("\"deadline_ms\":0.5", true);
      ("\"max_retries\":-3", false);
      ("\"max_retries\":0", true);
      ("\"samples\":-1", false);
      ("\"samples\":0", true);
    ];
  (* The command line: exit 2 with the rule's message, before any fault
     is analysed. *)
  List.iter
    (fun args ->
      let code, out = Dpa_cli.run args in
      let what = String.concat " " args in
      check int_t (what ^ ": exit 2") 2 code;
      check bool_t (what ^ ": names the setting") true
        (Dpa_cli.contains out "invalid sweep setting");
      check bool_t (what ^ ": nothing analysed") false
        (Dpa_cli.contains out "crashed" || Dpa_cli.contains out "swept"))
    [
      [ "analyze"; "c17"; "--all"; "--deadline-ms"; "0" ];
      [ "analyze"; "c17"; "--all"; "--deadline-ms"; "nan" ];
      [ "analyze"; "c17"; "--all"; "--deadline-ms=-1" ];
      [ "analyze"; "c17"; "--all"; "--fault-budget=-5" ];
      [ "analyze"; "c17"; "--all"; "--max-retries=-3" ];
      [ "analyze"; "c17"; "--all"; "--samples=-1" ];
      [ "analyze"; "c17"; "--all"; "--reorder-growth"; "0.5" ];
      [ "analyze"; "c17"; "--all"; "--reorder-growth"; "nan" ];
      [ "analyze"; "c17"; "--all"; "--domains=-4" ];
      [ "analyze"; "c17"; "--fault"; "G10:0"; "--domains"; "0" ];
      [ "profile"; "c17"; "--fault-budget=-1" ];
      [ "profile"; "c17"; "--domains"; "0" ];
    ]

(* ------------------------------------------------------------------ *)
(* LRU                                                                 *)

let test_lru_pinning_and_eviction () =
  let cache = Lru.create ~capacity:2 in
  let c17 = Bench_suite.find "c17" in
  let f17 = stuck_faults c17 in
  let d17 = Journal.digest c17 f17 in
  (* First checkout misses and builds fresh. *)
  let e1 =
    match Lru.checkout cache ~digest:d17 ~circuit:c17 ~faults:f17 with
    | `Fresh e -> e
    | `Cached _ -> Alcotest.fail "empty cache cannot hit"
  in
  (* While e1 is out (pinned after checkin? no — fresh, not yet in the
     cache), a second checkout of the same digest builds its own. *)
  (match Lru.checkout cache ~digest:d17 ~circuit:c17 ~faults:f17 with
  | `Fresh e2 -> Lru.checkin cache e2
  | `Cached _ -> Alcotest.fail "uncached digest cannot hit");
  Lru.checkin cache e1;
  (* Now resident: next checkout hits and pins. *)
  let e3 =
    match Lru.checkout cache ~digest:d17 ~circuit:c17 ~faults:f17 with
    | `Cached e -> e
    | `Fresh _ -> Alcotest.fail "resident digest should hit"
  in
  (* Pinned: a concurrent checkout of the same digest must not share. *)
  (match Lru.checkout cache ~digest:d17 ~circuit:c17 ~faults:f17 with
  | `Fresh e -> check bool_t "twin is a distinct entry" true (e != e3)
  | `Cached _ -> Alcotest.fail "pinned entry must not be shared");
  Lru.checkin cache e3;
  (* Fill past capacity with distinct digests: LRU idle entry evicted. *)
  let c95 = Bench_suite.find "c95" and c432 = Bench_suite.find "c432" in
  List.iter
    (fun c ->
      let f = stuck_faults c in
      let d = Journal.digest c f in
      match Lru.checkout cache ~digest:d ~circuit:c ~faults:f with
      | `Fresh e | `Cached e -> Lru.checkin cache e)
    [ c95; c432 ];
  let s = Lru.stats cache in
  check int_t "capacity respected" 2 s.Lru.resident;
  check bool_t "eviction happened" true (s.Lru.evictions >= 1)

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)

(* workers = 0 freezes the queue, making admission decisions
   deterministic: jobs are admitted but never drained. *)
let test_busy_and_coalescing () =
  with_server ~workers:0 ~queue_capacity:2 (fun _server sock ->
      let cl = Client.connect_unix_retry sock in
      let config budget =
        { Sweep_config.default with fault_budget = Some budget }
      in
      let expect_ack i coalesced =
        Client.send cl
          (Protocol.analyze_request ~id:(Printf.sprintf "a%d" i)
             ~config:(config i) (Protocol.Named "c17"));
        match Client.recv_response cl with
        | Ok (Protocol.Ack { coalesced = c; _ }) ->
          check bool_t
            (Printf.sprintf "request %d coalesced flag" i)
            coalesced c
        | other ->
          Alcotest.fail
            (Printf.sprintf "request %d: expected ack, got %s" i
               (match other with
               | Ok _ -> "another response"
               | Error e -> e))
      in
      (* Distinct budgets → distinct coalescing keys → distinct jobs. *)
      expect_ack 1 false;
      expect_ack 2 false;
      (* Queue full: a third distinct sweep is refused with busy. *)
      Client.send cl
        (Protocol.analyze_request ~id:"a3" ~config:(config 3)
           (Protocol.Named "c17"));
      (match Client.recv_response cl with
      | Ok (Protocol.Busy { queued; capacity; retry_after_ms; _ }) ->
        check int_t "queued" 2 queued;
        check int_t "capacity" 2 capacity;
        check bool_t "retry hint is positive" true (retry_after_ms >= 100)
      | _ -> Alcotest.fail "expected busy");
      (* Same circuit and options as a queued sweep: coalesces instead
         of counting against the full queue. *)
      Client.send cl
        (Protocol.analyze_request ~id:"a4" ~config:(config 1)
           (Protocol.Named "c17"));
      (match Client.recv_response cl with
      | Ok (Protocol.Ack { coalesced; _ }) ->
        check bool_t "coalesced onto the queued sweep" true coalesced
      | _ -> Alcotest.fail "expected coalesced ack");
      Client.close cl)

(* ------------------------------------------------------------------ *)
(* End-to-end streams                                                  *)

let test_ping_stats_lint () =
  with_server (fun _server sock ->
      let cl = Client.connect_unix_retry sock in
      Client.send cl (Protocol.simple_request ~id:"p1" "ping");
      (match Client.recv_response cl with
      | Ok (Protocol.Pong { id }) -> check Alcotest.string "pong id" "p1" id
      | _ -> Alcotest.fail "expected pong");
      Client.send cl (Protocol.simple_request ~id:"s1" "stats");
      (match Client.recv_response cl with
      | Ok (Protocol.Stats_response { id; fields }) ->
        check Alcotest.string "stats id" "s1" id;
        check bool_t "stats carry worker count" true
          (Journal.field_int fields "workers" = Some 1)
      | _ -> Alcotest.fail "expected stats");
      Client.send cl (Protocol.lint_request ~id:"l1" (Protocol.Named "c17"));
      (match Client.recv_response cl with
      | Ok (Protocol.Ack { op; _ }) -> check Alcotest.string "op" "lint" op
      | _ -> Alcotest.fail "expected lint ack");
      let rec drain findings =
        match Client.recv_response cl with
        | Ok (Protocol.Finding _) -> drain (findings + 1)
        | Ok (Protocol.Done { op; _ }) ->
          check Alcotest.string "done op" "lint" op
        | Ok _ -> drain findings
        | Error e -> Alcotest.fail e
      in
      drain 0;
      (* Malformed requests are correlated rejections, not hangups. *)
      Client.send cl "{\"id\":\"m1\",\"op\":\"analyze\"}";
      (match Client.recv_response cl with
      | Ok (Protocol.Error_response { id = Some "m1"; code; _ }) ->
        check Alcotest.string "error code" "bad_request" code
      | _ -> Alcotest.fail "expected a correlated bad_request error");
      Client.send cl "{\"id\":\"m2\",\"op\":\"analyze\",\"circuit\":\"nope\"}";
      (match Client.recv_response cl with
      | Ok (Protocol.Error_response { id = Some "m2"; code; _ }) ->
        check Alcotest.string "error code" "bad_circuit" code
      | _ -> Alcotest.fail "expected a bad_circuit error");
      Client.close cl)

(* A full analyze stream: ack, every fault index exactly once and in
   order, outcome payloads parseable by the journal's own reader, then
   done with consistent counts. *)
let test_analyze_stream () =
  with_server (fun _server sock ->
      let c = Bench_suite.find "c17" in
      let faults = Array.of_list (stuck_faults c) in
      let n = Array.length faults in
      let cl = Client.connect_unix_retry sock in
      (match Client.analyze cl ~id:"e2e" (Protocol.Named "c17") with
      | Ok { Client.ack = Some (Protocol.Ack { faults = fa; _ });
             outcomes;
             final = Protocol.Done { exact; op; _ } } ->
        check int_t "ack announces the fault count" n fa;
        check Alcotest.string "done op" "analyze" op;
        check int_t "one outcome per fault" n (List.length outcomes);
        check bool_t "streamed in index order" true
          (List.mapi (fun i _ -> i) outcomes
          = List.map fst outcomes);
        check int_t "all exact on an uncapped sweep" n exact;
        List.iter
          (fun (i, line) ->
            match Journal.outcome_of_line ~faults line with
            | Some (i', _) -> check int_t "payload parses as journal" i i'
            | None ->
              Alcotest.fail ("outcome payload is not a journal line: " ^ line))
          outcomes
      | Ok _ -> Alcotest.fail "unexpected stream shape"
      | Error e -> Alcotest.fail e);
      Client.close cl)

(* Per-request deadlines reach Bdd.with_deadline: a sub-millisecond cap
   degrades faults, but every fault still gets an outcome line and the
   done counts stay consistent — the sweep never wedges or drops. *)
let test_deadline_degrades_not_drops () =
  with_server (fun _server sock ->
      let c = Bench_suite.find "c432" in
      let n = List.length (stuck_faults c) in
      let cl = Client.connect_unix_retry sock in
      let config =
        {
          Sweep_config.default with
          deadline_ms = Some 0.01;
          max_retries = 0;
          bound_samples = 64;
        }
      in
      (match Client.analyze cl ~id:"dl" ~config (Protocol.Named "c432") with
      | Ok { Client.outcomes;
             final = Protocol.Done { exact; bounded; unbounded; crashed; _ };
             _ } ->
        check int_t "every fault answered under the deadline" n
          (List.length outcomes);
        check int_t "counts partition the fault set" n
          (exact + bounded + unbounded + crashed);
        check int_t "nothing crashed" 0 crashed
      | Ok _ -> Alcotest.fail "unexpected stream shape"
      | Error e -> Alcotest.fail e);
      Client.close cl)

(* ------------------------------------------------------------------ *)
(* Drain and lifecycle                                                 *)

(* request_stop mid-sweep: the in-flight sweep completes and streams
   its done line before the server exits — drain is graceful, not a
   guillotine. *)
let test_drain_completes_in_flight () =
  with_temp_dir (fun dir ->
      let sock = Filename.concat dir "dpa.sock" in
      let server =
        Server.start
          {
            (Server.default_config ~socket:(Server.Unix_socket sock)) with
            Server.workers = 1;
          }
      in
      let cl = Client.connect_unix_retry sock in
      Client.send cl (Protocol.analyze_request ~id:"d1" (Protocol.Named "c95"));
      (* Ack first, so the sweep is admitted before the stop lands. *)
      (match Client.recv_response cl with
      | Ok (Protocol.Ack _) -> ()
      | _ -> Alcotest.fail "expected ack");
      Server.request_stop server;
      let rec drain outcomes =
        match Client.recv_response cl with
        | Ok (Protocol.Outcome _) -> drain (outcomes + 1)
        | Ok (Protocol.Done _) -> outcomes
        | Ok _ -> drain outcomes
        | Error e -> Alcotest.fail ("stream cut during drain: " ^ e)
      in
      let n = List.length (stuck_faults (Bench_suite.find "c95")) in
      check int_t "in-flight sweep streamed to completion during drain" n
        (drain 0);
      Client.close cl;
      Server.wait server;
      check bool_t "socket file removed after drain" false
        (Sys.file_exists sock))

let test_stale_socket_reclaimed () =
  with_temp_dir (fun dir ->
      let sock = Filename.concat dir "dpa.sock" in
      (* Manufacture a SIGKILL leftover: a bound socket file with no
         process behind it. *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX sock);
      Unix.close fd;
      check bool_t "stale socket file exists" true (Sys.file_exists sock);
      let server =
        Server.start
          (Server.default_config ~socket:(Server.Unix_socket sock))
      in
      let cl = Client.connect_unix_retry sock in
      Client.send cl (Protocol.simple_request ~id:"p" "ping");
      (match Client.recv_response cl with
      | Ok (Protocol.Pong _) -> ()
      | _ -> Alcotest.fail "server did not come up over the stale socket");
      Client.close cl;
      Server.stop server)

(* ------------------------------------------------------------------ *)

let () =
  Random.self_init ();
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "requests round trip" `Quick
            test_request_roundtrip;
          Alcotest.test_case "outcome envelope strips byte-exactly" `Quick
            test_outcome_envelope_inverse;
          Alcotest.test_case "fingerprint separates every setting" `Quick
            test_fingerprint_discriminates;
        ] );
      ( "lru",
        [
          Alcotest.test_case "pinning, twins and eviction" `Quick
            test_lru_pinning_and_eviction;
        ] );
      ( "admission",
        [
          Alcotest.test_case "busy when full, coalesce when shared" `Quick
            test_busy_and_coalescing;
        ] );
      ( "settings",
        [
          Alcotest.test_case "one rule set: config, engine, wire, CLI" `Quick
            test_validation_rules;
        ] );
      ( "streams",
        [
          Alcotest.test_case "ping, stats, lint, rejections" `Quick
            test_ping_stats_lint;
          Alcotest.test_case "analyze: in-order, complete, journal-grade"
            `Quick test_analyze_stream;
          Alcotest.test_case "deadlines degrade faults, never drop them"
            `Quick test_deadline_degrades_not_drops;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "drain completes in-flight sweeps" `Quick
            test_drain_completes_in_flight;
          Alcotest.test_case "stale socket file reclaimed on start" `Quick
            test_stale_socket_reclaimed;
        ] );
    ]
