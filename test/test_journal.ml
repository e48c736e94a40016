(* Checkpoint/resume: JSON-lines journal round trips every outcome
   variant bit-exactly, stale journals are rejected, torn tails are
   tolerated, and — the acceptance property — a sweep killed at any
   point and resumed from its journal produces outcomes bit-identical
   to an uninterrupted run, whatever domain count either side used. *)

let check = Alcotest.check
let bool_t = Alcotest.bool

let with_temp_file f =
  let path = Filename.temp_file "dpa-journal" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with _ -> ()) (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Line round trip                                                     *)

let awkward = 0.1 +. (1.0 /. 3.0)

let sample_result fault =
  {
    Engine.fault;
    detectability = awkward;
    test_count = 12345678.0;
    detectable = true;
    pos_fed = 3;
    pos_observed = 2;
    upper_bound = 0.7;
    adherence = Some (awkward /. 7.0);
    wired_support = None;
    test_set_nodes = 41;
    rescued_by_reorder = false;
  }

let test_roundtrip_all_variants () =
  let c = Bench_suite.find "c17" in
  let faults =
    Array.of_list
      (List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c))
  in
  let outcomes =
    [
      Engine.Exact (sample_result faults.(0));
      Engine.Exact
        {
          (sample_result faults.(1)) with
          Engine.detectable = false;
          adherence = None;
          wired_support = Some 2;
        };
      Engine.Bounded
        {
          fault = faults.(2);
          lower = 0.0;
          upper = Float.succ 0.25 (* not representable in decimal *);
          syndrome_bound = 0.5;
          samples = 4096;
          reason = Engine.Over_budget { nodes = 17; budget = 16 };
        };
      Engine.Bounded
        {
          fault = faults.(3);
          lower = awkward /. 11.0;
          upper = 1.0;
          syndrome_bound = 1.0;
          samples = 64;
          reason = Engine.Over_deadline { deadline_ms = 12.5 };
        };
      Engine.Budget_exceeded { fault = faults.(4); nodes = 9; budget = 8 };
      Engine.Deadline_exceeded
        { fault = faults.(5); elapsed_ms = 3.25; deadline_ms = 3.0 };
      Engine.Crashed
        { fault = faults.(6); message = "quotes \" and\nnewlines\tand \\" };
      Engine.Exact
        { (sample_result faults.(7)) with Engine.rescued_by_reorder = true };
    ]
  in
  List.iteri
    (fun i o ->
      let line = Journal.outcome_line i o in
      match Journal.outcome_of_line ~faults line with
      | Some (i', o') ->
        check Alcotest.int "index survives" i i';
        check bool_t "outcome bit-identical after round trip" true (o = o')
      | None -> Alcotest.fail ("line did not parse back: " ^ line))
    outcomes

(* 1100 inputs, all but two unused: z = OR(i1, AND(i0, NOT(i0))).  With
   n >= 1024, 2^n is infinite as a float, so scaling detectability by a
   product with [2.0 ** n] turned every undetectable fault's test count
   into 0 * inf = nan — which the journal then wrote as "-nan". *)
let wide_netlist () =
  let buf = Buffer.create 16384 in
  for i = 0 to 1099 do
    Printf.bprintf buf "INPUT(i%d)\n" i
  done;
  Buffer.add_string buf
    "OUTPUT(z)\nn = NOT(i0)\na = AND(i0, n)\nz = OR(i1, a)\n";
  Bench_format.parse ~title:"wide" (Buffer.contents buf)

let test_wide_netlist_counts () =
  let c = wide_netlist () in
  check Alcotest.int "inputs" 1100 (Circuit.num_inputs c);
  let faults =
    Array.of_list
      (List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c))
  in
  let e = Engine.create c in
  let undetectable = ref 0 in
  Array.iteri
    (fun i fault ->
      let r = Engine.analyze e fault in
      if not r.Engine.detectable then begin
        incr undetectable;
        check (Alcotest.float 0.0) "undetectable fault counts 0 tests" 0.0
          r.Engine.test_count
      end;
      let line = Journal.outcome_line i (Engine.Exact r) in
      check bool_t ("no nan in " ^ line) false (Dpa_cli.contains line "nan");
      match Journal.outcome_of_line ~faults line with
      | Some (i', o') ->
        check Alcotest.int "index survives" i i';
        check bool_t "outcome bit-identical after round trip" true
          (Engine.Exact r = o')
      | None -> Alcotest.fail ("line did not parse back: " ^ line))
    faults;
  check bool_t "the netlist has undetectable faults" true (!undetectable > 0)

(* ------------------------------------------------------------------ *)
(* Journal validation                                                  *)

let stuck_faults c =
  List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)

let test_stale_journal_rejected () =
  let c17 = Bench_suite.find "c17" and c95 = Bench_suite.find "c95" in
  let f17 = stuck_faults c17 and f95 = stuck_faults c95 in
  with_temp_file (fun path ->
      let sink =
        Journal.create ~path ~digest:(Journal.digest c17 f17)
          ~faults:(List.length f17) ()
      in
      Journal.append sink 0
        (Engine.Crashed { fault = List.hd f17; message = "x" });
      Journal.close sink;
      (* Same file, same fault count requested, different circuit. *)
      (match
         Journal.load ~path ~digest:(Journal.digest c95 f95)
           ~faults:(Array.of_list f17)
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "digest mismatch accepted");
      (* Right digest, wrong fault count. *)
      (match
         Journal.load ~path ~digest:(Journal.digest c17 f17)
           ~faults:(Array.of_list (List.tl f17))
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "fault-count mismatch accepted");
      (* The honest load works and holds the entry. *)
      match
        Journal.load ~path ~digest:(Journal.digest c17 f17)
          ~faults:(Array.of_list f17)
      with
      | Ok table -> check Alcotest.int "one entry" 1 (Hashtbl.length table)
      | Error msg -> Alcotest.fail msg)

let test_corrupt_header_rejected () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "not json at all\n";
      close_out oc;
      match Journal.load ~path ~digest:"d" ~faults:[||] with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "corrupt header accepted")

(* A v1 journal (no rescue stage) must be rejected up front with a
   diagnostic naming the header line, not crash the parser or — worse —
   resume into outcomes whose degradation ladder never had the rescue
   rung. *)
let test_old_version_rejected () =
  let c = Bench_suite.find "c17" in
  let faults = stuck_faults c in
  let digest = Journal.digest c faults in
  with_temp_file (fun path ->
      let oc = open_out path in
      Printf.fprintf oc
        "{\"journal\":\"dpa-sweep\",\"version\":1,\"digest\":%S,\"faults\":%d}\n"
        digest (List.length faults);
      close_out oc;
      match Journal.load ~path ~digest ~faults:(Array.of_list faults) with
      | Error msg ->
        check bool_t "diagnostic names line 1" true
          (String.length msg >= 7 && String.sub msg 0 7 = "line 1:");
        check bool_t "diagnostic mentions the version" true
          (String.exists (fun ch -> ch = '1') msg)
      | Ok _ -> Alcotest.fail "v1 journal accepted")

(* An entry that parses as JSON but does not carry the v2 fields (here:
   an old-schema exact record without "resc") is corruption, not a torn
   tail: the load must fail with the line number instead of silently
   dropping the rest of the journal. *)
let test_schema_mismatch_rejected () =
  let c = Bench_suite.find "c17" in
  let faults = stuck_faults c in
  let arr = Array.of_list faults in
  let digest = Journal.digest c faults in
  with_temp_file (fun path ->
      let sink =
        Journal.create ~path ~digest ~faults:(List.length faults) ()
      in
      Journal.append sink 0 (Engine.Exact (sample_result arr.(0)));
      Journal.close sink;
      let oc = open_out_gen [ Open_append; Open_wronly ] 0o644 path in
      (* Well-formed JSON, wrong shape: a v1-style exact record. *)
      output_string oc
        "{\"i\":1,\"o\":\"exact\",\"d\":\"0x1p-1\",\"tc\":\"0x1p4\",\"det\":true,\"pf\":1,\"po\":1,\"ub\":\"0x1p-1\",\"adh\":null,\"ws\":null,\"tsn\":3}\n";
      close_out oc;
      match Journal.load ~path ~digest ~faults:arr with
      | Error msg ->
        check bool_t "diagnostic names the entry line" true
          (String.length msg >= 7 && String.sub msg 0 7 = "line 3:")
      | Ok _ -> Alcotest.fail "schema-mismatched entry accepted")

let test_torn_tail_and_duplicates () =
  let c = Bench_suite.find "c17" in
  let faults = stuck_faults c in
  let arr = Array.of_list faults in
  let digest = Journal.digest c faults in
  let wrong = Engine.Crashed { fault = arr.(0); message = "superseded" } in
  let right = Engine.Exact (sample_result arr.(0)) in
  with_temp_file (fun path ->
      let sink =
        Journal.create ~path ~digest ~faults:(List.length faults) ()
      in
      Journal.append sink 0 wrong;
      Journal.append sink 0 right;
      Journal.append sink 1 (Engine.Exact (sample_result arr.(1)));
      Journal.close sink;
      (* Tear the file mid-way through the final line, as SIGKILL under
         a buffered writer would. *)
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let cut = String.length text - 25 in
      let oc = open_out_bin path in
      output_string oc (String.sub text 0 cut);
      close_out oc;
      match Journal.load ~path ~digest ~faults:arr with
      | Error msg -> Alcotest.fail msg
      | Ok table ->
        check bool_t "index 1's torn line dropped" true
          (not (Hashtbl.mem table 1));
        check bool_t "later duplicate wins for index 0" true
          (Hashtbl.find_opt table 0 = Some right))

(* ------------------------------------------------------------------ *)
(* Kill-and-resume bit-identity                                        *)

(* Stuck + bridge + multiple faults, as the scheduler tests use. *)
let mixed_faults rng c =
  let n = Circuit.num_gates c in
  let stucks = stuck_faults c in
  let bridges =
    Bridge.enumerate c
    |> List.filteri (fun i _ -> i mod 7 = Prng.int rng 7)
    |> List.map (fun b -> Fault.Bridged b)
  in
  let multis =
    List.init 2 (fun _ ->
        let a = Prng.int rng n in
        let b = (a + 1 + Prng.int rng (n - 1)) mod n in
        Fault.multi [ (a, Prng.bool rng); (b, Prng.bool rng) ])
  in
  stucks @ bridges @ multis

(* Reference sweep, then a "killed" journal holding an arbitrary subset
   of its outcomes (plus a torn line), then a resumed sweep under a
   different domain draw.  A budgeted sweep pins budget
   classification to the canonical arena, so the merged outcome list
   must equal the reference bit for bit. *)
let kill_resume_prop seed =
  let rng = Prng.create ~seed:(seed + 9000) in
  let c =
    Generate.random ~seed:(seed + 1) ~inputs:(5 + Prng.int rng 3)
      ~gates:(10 + Prng.int rng 15)
      ~outputs:(1 + Prng.int rng 3)
  in
  let faults = mixed_faults rng c in
  let n = List.length faults in
  let arr = Array.of_list faults in
  let digest = Journal.digest c faults in
  let fault_budget = 40 + Prng.int rng 150 in
  let sweep ?journal () =
    (* [reorder = true] spelled out: the rescue rung must preserve the
       kill-and-resume bit-identity this property is about. *)
    let config =
      {
        Sweep_config.default with
        fault_budget = Some fault_budget;
        max_retries = 1;
        reorder = true;
        domains = 1 + Prng.int rng 3;
      }
    in
    fst (Engine.sweep ~config ?journal (Engine.create c) faults)
  in
  let reference = sweep () in
  let cut = Prng.int rng (n + 1) in
  with_temp_file (fun path ->
      let sink = Journal.create ~path ~digest ~faults:n () in
      List.iteri
        (fun i o -> if i < cut then Journal.append sink i o)
        reference;
      Journal.close sink;
      (* Torn tail: half of the next outcome's line. *)
      if cut < n then begin
        let line = Journal.outcome_line cut (List.nth reference cut) in
        let oc =
          open_out_gen [ Open_append; Open_wronly ] 0o644 path
        in
        output_string oc (String.sub line 0 (String.length line / 2));
        close_out oc
      end;
      match Journal.load ~path ~digest ~faults:arr with
      | Error msg -> Alcotest.fail msg
      | Ok table ->
        let resumed = sweep ~journal:(Journal.engine_journal table) () in
        resumed = reference)

let prop_kill_resume_bit_identical =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:15
       ~name:
         "journal kill-and-resume = uninterrupted sweep (random circuits, \
          fault mixes, domain counts, cut points)"
       QCheck.small_nat kill_resume_prop)

(* The same end to end through the file-recording path: a journaled c17
   sweep, the file truncated at an arbitrary byte past the header, a
   resumed journaled sweep — outcome lists bit-identical. *)
let test_file_truncation_resume () =
  let c = Bench_suite.find "c17" in
  let faults = stuck_faults c in
  let arr = Array.of_list faults in
  let digest = Journal.digest c faults in
  let n = List.length faults in
  with_temp_file (fun path ->
      let run ~resume_table =
        let sink =
          match resume_table with
          | None -> Journal.create ~path ~digest ~faults:n ()
          | Some _ -> Journal.reopen ~path ()
        in
        let table =
          Option.value resume_table ~default:(Hashtbl.create 1)
        in
        let outcomes, _ =
          Engine.sweep
            ~config:
              {
                Sweep_config.default with
                fault_budget = Some 60;
                max_retries = 0;
              }
            ~journal:(Journal.engine_journal ~sink table)
            (Engine.create c) faults
        in
        Journal.close sink;
        outcomes
      in
      let reference = run ~resume_table:None in
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let header_len = String.index text '\n' + 1 in
      let cut = header_len + ((String.length text - header_len) * 3 / 5) in
      let oc = open_out_bin path in
      output_string oc (String.sub text 0 cut);
      close_out oc;
      match Journal.load ~path ~digest ~faults:arr with
      | Error msg -> Alcotest.fail msg
      | Ok table ->
        check bool_t "truncation left a proper subset" true
          (Hashtbl.length table < n);
        let resumed = run ~resume_table:(Some table) in
        check bool_t "resumed sweep bit-identical to uninterrupted" true
          (resumed = reference))

(* ------------------------------------------------------------------ *)
(* Daemon kill-and-resume byte identity                                *)

(* The same guarantee end to end through the dpa serve daemon: a sweep
   started over the socket, the server SIGKILLed after the client has
   observed an arbitrary prefix of the outcome stream, a fresh server
   started on the same state directory — the restarted request's full
   stream must be byte-identical to an uninterrupted run's, and at
   least the observed prefix must come back from the journal rather
   than recomputation (the daemon fsyncs before it streams). *)

let with_temp_dir f =
  let dir = Filename.temp_file "dpa-serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
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

let start_daemon ~sock ~state_dir ~sync_every =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process Dpa_cli.exe
      [|
        Dpa_cli.exe; "serve"; "--socket"; sock; "--state-dir"; state_dir;
        "--workers"; "1"; "--sync-every"; string_of_int sync_every;
      |]
      null null null
  in
  Unix.close null;
  pid

let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* Collect one analyze stream: outcome journal-lines in order plus the
   resumed count from the done line. *)
let collect_stream cl ~id ?config spec =
  match Client.analyze cl ~id ?config spec with
  | Ok
      {
        Client.outcomes;
        final = Protocol.Done { resumed; _ };
        _;
      } ->
    (List.map snd outcomes, resumed)
  | Ok _ -> Alcotest.fail "analyze stream ended without done"
  | Error msg -> Alcotest.fail msg

let daemon_kill_resume_prop seed =
  let rng = Prng.create ~seed:(seed + 4000) in
  let c =
    Generate.random ~seed:(seed + 7) ~inputs:(5 + Prng.int rng 3)
      ~gates:(12 + Prng.int rng 18)
      ~outputs:(1 + Prng.int rng 3)
  in
  let spec =
    Protocol.Inline { title = "gen"; source = Bench_format.print c }
  in
  let config =
    {
      Sweep_config.default with
      fault_budget = Some (60 + Prng.int rng 200);
      max_retries = 1;
    }
  in
  let n = List.length (Sa_fault.collapsed_faults c) in
  (* Uninterrupted reference stream, via its own daemon + state dir. *)
  let reference =
    with_temp_dir (fun dir ->
        let sock = Filename.concat dir "s.sock" in
        let pid = start_daemon ~sock ~state_dir:dir ~sync_every:32 in
        Fun.protect
          ~finally:(fun () -> stop_daemon pid)
          (fun () ->
            let cl = Client.connect_unix_retry sock in
            let lines, _ = collect_stream cl ~id:"ref" ~config spec in
            Client.close cl;
            lines))
  in
  if List.length reference <> n then
    Alcotest.fail "reference stream incomplete";
  with_temp_dir (fun dir ->
      let sock = Filename.concat dir "s.sock" in
      let cut = Prng.int rng (n + 1) in
      (* Round one: observe [cut] outcomes, then SIGKILL the server.
         sync_every = 1 makes every streamed outcome already fsync'd,
         so the journal must hold at least the observed prefix. *)
      let pid = start_daemon ~sock ~state_dir:dir ~sync_every:1 in
      (try
         let cl = Client.connect_unix_retry sock in
         Client.send cl (Protocol.analyze_request ~id:"kill" ~config spec);
         let rec observe k =
           if k < cut then
             match Client.recv_response cl with
             | Ok (Protocol.Outcome _) -> observe (k + 1)
             | Ok (Protocol.Done _) -> ()
             | Ok _ -> observe k
             | Error _ -> ()
         in
         observe 0;
         Client.close cl
       with e ->
         stop_daemon pid;
         raise e);
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      (* Round two: a fresh server on the same state dir re-serves the
         journaled prefix and computes the rest. *)
      let pid = start_daemon ~sock ~state_dir:dir ~sync_every:1 in
      Fun.protect
        ~finally:(fun () -> stop_daemon pid)
        (fun () ->
          let cl = Client.connect_unix_retry sock in
          let lines, resumed = collect_stream cl ~id:"resume" ~config spec in
          Client.close cl;
          if resumed < cut then
            QCheck.Test.fail_reportf
              "journal lost observed outcomes: saw %d before SIGKILL, \
               resumed only %d"
              cut resumed;
          if lines <> reference then
            QCheck.Test.fail_reportf
              "restarted stream differs from uninterrupted run (%d vs %d \
               lines)"
              (List.length lines) (List.length reference);
          true))

let prop_daemon_kill_resume =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:6
       ~name:
         "daemon SIGKILL at random cut + restart = uninterrupted stream \
          (byte-identical, observed prefix journal-served)"
       QCheck.small_nat daemon_kill_resume_prop)

let test_record_failure_propagates () =
  (* One failure rule at every domain count: a journal whose [record]
     raises on its k-th call (a full disk, say) makes the sweep raise
     that exception, and no fault is recorded twice — no batch is run
     again.  The loop stops at that fault; a multi-domain sweep stops
     the failing batch, finishes the others and raises once every
     domain has joined.  Budgeted or not, under a deadline or not, and
     whether the first, a middle or the last append fails. *)
  let c = Bench_suite.find "c17" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  let n = List.length faults in
  let d = Sweep_config.default in
  List.iter
    (fun (name, (config : Sweep_config.t)) ->
      List.iter
        (fun k ->
          let lock = Mutex.create () in
          let recorded = ref [] in
          let journal =
            {
              Engine.skip = (fun _ -> None);
              record =
                (fun i _ ->
                  Mutex.protect lock (fun () ->
                      recorded := i :: !recorded;
                      if List.length !recorded = k then failwith "disk full"));
            }
          in
          let raised =
            try
              ignore (Engine.sweep ~config ~journal (Engine.create c) faults);
              false
            with Failure m -> m = "disk full"
          in
          let label = Printf.sprintf "%s, failing call %d" name k in
          check bool_t (label ^ ": record's exception reaches the caller")
            true raised;
          if config.domains = 1 then
            check Alcotest.int (label ^ ": exactly k record calls") k
              (List.length !recorded);
          check Alcotest.int (label ^ ": no fault recorded twice")
            (List.length !recorded)
            (List.length (List.sort_uniq Int.compare !recorded)))
        [ 1; 3; n ])
    [
      ("unbudgeted", { d with domains = 1 });
      ("budgeted", { d with domains = 1; fault_budget = Some 1_000_000 });
      ("unbudgeted, 2 domains", { d with domains = 2 });
      ( "budgeted, 2 domains",
        { d with domains = 2; fault_budget = Some 1_000_000 } );
      ( "50 ms deadline, 2 domains",
        { d with domains = 2; deadline_ms = Some 50. } );
    ]

(* ------------------------------------------------------------------ *)
(* Journals are keyed on the sweep settings                            *)

(* Settings outside [Sweep_config.fingerprint] change how a sweep
   runs, never what it answers: two configs with equal fingerprints
   must produce byte-identical journal lines.  The variants draw the
   scheduling setting: one to three domains. *)
let scheduling_variant rng base =
  { base with Sweep_config.domains = 1 + Prng.int rng 3 }

let journal_lines ?heuristic config c faults =
  fst (Engine.sweep ~config (Engine.create ?heuristic c) faults)
  |> List.mapi Journal.outcome_line

(* The input order is not a setting at all: swept in reverse, every
   fault must get the same answer under the same index. *)
let reversed_journal_lines ?heuristic config c faults =
  fst (Engine.sweep ~config (Engine.create ?heuristic c) (List.rev faults))
  |> List.rev
  |> List.mapi Journal.outcome_line

let fingerprint_prop seed =
  let rng = Prng.create ~seed:(seed + 12000) in
  let c =
    Generate.random ~seed:(seed + 3) ~inputs:(5 + Prng.int rng 3)
      ~gates:(10 + Prng.int rng 15)
      ~outputs:(1 + Prng.int rng 3)
  in
  let faults = mixed_faults rng c in
  let base =
    {
      Sweep_config.default with
      fault_budget = Some (40 + Prng.int rng 150);
      max_retries = Prng.int rng 2;
    }
  in
  let a = scheduling_variant rng base and b = scheduling_variant rng base in
  Sweep_config.fingerprint a = Sweep_config.fingerprint b
  && journal_lines a c faults = journal_lines b c faults

let prop_fingerprint_equal_outcomes =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25
       ~name:
         "equal fingerprints give byte-identical journal lines (random \
          circuits, domain counts)"
       QCheck.small_nat fingerprint_prop)

(* No setting asks for reproducible budgeted outcomes: a tight budget
   with few retries sends faults down the ladder, and which rung answers
   each one must not depend on the domain count or on the order the
   faults came in. *)
let budgeted_canonical_prop seed =
  let rng = Prng.create ~seed:(seed + 23000) in
  let c =
    Generate.random ~seed:(seed + 5) ~inputs:(5 + Prng.int rng 3)
      ~gates:(15 + Prng.int rng 20)
      ~outputs:(1 + Prng.int rng 3)
  in
  let faults = mixed_faults rng c in
  let fault_budget = Some (20 + Prng.int rng 100) in
  let max_retries = Prng.int rng 2 in
  let config domains =
    { Sweep_config.default with fault_budget; max_retries; domains }
  in
  let forward = journal_lines (config 1) c faults in
  journal_lines (config 2) c faults = forward
  && reversed_journal_lines (config 1) c faults = forward
  && reversed_journal_lines (config 2) c faults = forward

let prop_budgeted_sweeps_canonical =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25
       ~name:
         "budgeted sweeps give identical journal lines at 1 and 2 domains, \
          in forward and reversed order (random circuits, tight budgets)"
       QCheck.small_nat budgeted_canonical_prop)

(* The same on a sweep that really degrades: c95 under declaration order
   at budget 50 without the rescue rung (which would save every fault),
   at three domains and in reversed order. *)
let test_fingerprint_c95_degrading () =
  let c = Bench_suite.find "c95" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  let base =
    {
      Sweep_config.default with
      fault_budget = Some 50;
      reorder = false;
    }
  in
  let lines config =
    journal_lines ~heuristic:Ordering.Natural config c faults
  in
  let reference = lines base in
  check bool_t "some fault degrades under the tight budget" true
    (List.exists
       (fun o -> not (Engine.is_exact o))
       (fst
          (Engine.sweep ~config:base
             (Engine.create ~heuristic:Ordering.Natural c)
             faults)));
  let wide = { base with domains = 3 } in
  check bool_t "3 domains: same fingerprint" true
    (Sweep_config.fingerprint wide = Sweep_config.fingerprint base);
  check bool_t "3 domains: byte-identical journal lines" true
    (lines wide = reference);
  check bool_t "reversed fault list: byte-identical journal lines" true
    (reversed_journal_lines ~heuristic:Ordering.Natural base c faults
    = reference)

let test_checkpoint_rejects_changed_options () =
  with_temp_dir (fun dir ->
      let journal = Filename.concat dir "j.jsonl" in
      let analyze budget extra =
        Dpa_cli.run
          ([ "analyze"; "c95"; "--fault-budget"; budget ]
          @ [ "--checkpoint"; journal ]
          @ extra)
      in
      let code, _ = analyze "50" [] in
      check Alcotest.int "journaled sweep completes" 0 code;
      let code, out = analyze "100" [ "--resume" ] in
      check Alcotest.int "resume under another budget is refused" 2 code;
      check bool_t "reported as a stale journal" true
        (Dpa_cli.contains out "stale journal");
      let code, out = analyze "50" [ "--resume" ] in
      check Alcotest.int "resume under the same budget succeeds" 0 code;
      check bool_t "every outcome reused" true
        (Dpa_cli.contains out "resuming: 140 of 140"))

(* [domains] is outside the fingerprint: a journal cut short at one
   domain resumes at two, and the final records match byte for byte. *)
let test_checkpoint_resumes_across_domains () =
  with_temp_dir (fun dir ->
      let path name = Filename.concat dir name in
      let analyze args =
        Dpa_cli.run ([ "analyze"; "c95"; "--fault-budget"; "50" ] @ args)
      in
      let code, _ =
        analyze
          [
            "--domains"; "1"; "--checkpoint"; path "full.jsonl"; "--json";
            path "ref.json";
          ]
      in
      check Alcotest.int "reference sweep" 0 code;
      (* A killed run: the header and the first half of the outcomes. *)
      let lines =
        In_channel.with_open_bin (path "full.jsonl") In_channel.input_lines
      in
      let keep = 1 + ((List.length lines - 1) / 2) in
      Out_channel.with_open_bin (path "cut.jsonl") (fun oc ->
          List.iteri
            (fun i l -> if i < keep then output_string oc (l ^ "\n"))
            lines);
      let code, out =
        analyze
          [
            "--domains"; "2"; "--checkpoint"; path "cut.jsonl"; "--resume";
            "--json"; path "resumed.json";
          ]
      in
      check Alcotest.int "resumed sweep" 0 code;
      check bool_t "the cut journal was resumed" true
        (Dpa_cli.contains out (Printf.sprintf "resuming: %d of" (keep - 1)));
      let read name =
        In_channel.with_open_bin (path name) In_channel.input_all
      in
      check Alcotest.string "records byte-identical across domain counts"
        (read "ref.json") (read "resumed.json"))

(* A journal only records a sweep, so it changes nothing an unbudgeted
   sweep answers: the records match a sweep without --checkpoint byte
   for byte.  A journal written while unbudgeted journaled sweeps still
   restored the canonical arena before every fault carries the old
   settings fingerprint (suffix [k1]) in its header digest; resuming it
   is refused with a diagnostic, exit 2. *)
let test_unbudgeted_checkpoint () =
  with_temp_dir (fun dir ->
      let path name = Filename.concat dir name in
      let analyze args = Dpa_cli.run ("analyze" :: "c432" :: "--all" :: args) in
      let read name =
        In_channel.with_open_bin (path name) In_channel.input_all
      in
      let code, _ = analyze [ "--json"; path "plain.json" ] in
      check Alcotest.int "plain sweep" 0 code;
      let code, _ =
        analyze
          [ "--checkpoint"; path "j.jsonl"; "--json"; path "journaled.json" ]
      in
      check Alcotest.int "journaled sweep" 0 code;
      check Alcotest.string "journaled records byte-identical to plain ones"
        (read "plain.json") (read "journaled.json");
      let c = Bench_suite.find "c432" in
      let faults = stuck_faults c in
      let old_digest =
        Digest.to_hex
          (Digest.string
             (Journal.digest c faults ^ "|"
             ^ "bnone-dnone-r2-o1-g0x1.3333333333333p+0-x1-s4096-k1"))
      in
      List.iter
        (fun (header, diagnostic) ->
          Out_channel.with_open_bin (path "old.jsonl") (fun oc ->
              output_string oc (header ^ "\n"));
          let code, out =
            analyze [ "--checkpoint"; path "old.jsonl"; "--resume" ]
          in
          check Alcotest.int ("refused: " ^ diagnostic) 2 code;
          check bool_t ("reported as " ^ diagnostic) true
            (Dpa_cli.contains out diagnostic))
        [
          ( Printf.sprintf
              {|{"journal":"dpa-sweep","version":2,"digest":"%s","faults":%d}|}
              old_digest (List.length faults),
            "journal version 2 is not 3" );
          ( Journal.header_line ~digest:old_digest ~faults:(List.length faults),
            "stale journal" );
        ])

(* ------------------------------------------------------------------ *)
(* Writer lock                                                         *)

(* A lock file naming [pid], as a writer that took the lock and then
   died would leave it. *)
let with_lock_held_by pid f =
  with_temp_file (fun path ->
      let lock_file = Journal.writer_lock_path path in
      Out_channel.with_open_bin lock_file (fun oc ->
          Printf.fprintf oc "%d\n" pid);
      Fun.protect
        ~finally:(fun () -> try Sys.remove lock_file with _ -> ())
        (fun () -> f path))

let acquired path =
  match Journal.acquire_writer_lock ~path () with
  | Ok lock ->
    Journal.release_writer_lock lock;
    true
  | Error _ -> false

(* A child that exits at once.  Spawned, not forked: [Unix.fork] is
   refused once this process has run a multi-domain sweep. *)
let exited_child () =
  Unix.create_process "true" [| "true" |] Unix.stdin Unix.stdout Unix.stderr

let proc_state pid =
  match
    In_channel.with_open_bin
      (Printf.sprintf "/proc/%d/stat" pid)
      In_channel.input_all
  with
  | exception _ -> None
  | stat ->
    let i = String.rindex stat ')' in
    Some stat.[i + 2]

let test_lock_live_holder () =
  with_lock_held_by (Unix.getpid ()) (fun path ->
      check bool_t "a running holder keeps the lock" false (acquired path))

let test_lock_dead_holder () =
  let pid = exited_child () in
  ignore (Unix.waitpid [] pid : int * Unix.process_status);
  with_lock_held_by pid (fun path ->
      check bool_t "a reaped holder's lock is broken" true (acquired path))

(* A SIGKILLed writer whose parent has not reaped it yet still answers
   [kill pid 0]: a resume straight after the kill must not take it for
   a running writer. *)
let test_lock_zombie_holder () =
  if proc_state (Unix.getpid ()) = None then Alcotest.skip ();
  let pid = exited_child () in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.waitpid [] pid : int * Unix.process_status))
    (fun () ->
      let rec await_zombie tries =
        if proc_state pid <> Some 'Z' && tries > 0 then begin
          Unix.sleepf 0.01;
          await_zombie (tries - 1)
        end
      in
      await_zombie 500;
      check bool_t "the child is an unreaped zombie" true
        (proc_state pid = Some 'Z');
      with_lock_held_by pid (fun path ->
          check bool_t "an unreaped holder's lock is broken" true
            (acquired path)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "journal"
    [
      ( "line format",
        [
          Alcotest.test_case "every outcome variant round trips bit-exactly"
            `Quick test_roundtrip_all_variants;
          Alcotest.test_case "1100-input netlist: zero counts, round trip"
            `Quick test_wide_netlist_counts;
        ] );
      ( "validation",
        [
          Alcotest.test_case "stale digest / fault count rejected" `Quick
            test_stale_journal_rejected;
          Alcotest.test_case "corrupt header rejected" `Quick
            test_corrupt_header_rejected;
          Alcotest.test_case "old-version journal rejected with line number"
            `Quick test_old_version_rejected;
          Alcotest.test_case "schema-mismatched entry rejected with line number"
            `Quick test_schema_mismatch_rejected;
          Alcotest.test_case "torn tail tolerated, duplicates last-wins"
            `Quick test_torn_tail_and_duplicates;
        ] );
      ( "kill and resume",
        [
          prop_kill_resume_bit_identical;
          Alcotest.test_case "file truncation resume (c17, journaled)"
            `Quick test_file_truncation_resume;
          Alcotest.test_case
            "failing record stops the sweep at any domain count" `Quick test_record_failure_propagates;
        ] );
      ("daemon kill and resume", [ prop_daemon_kill_resume ]);
      ( "sweep settings",
        [
          prop_fingerprint_equal_outcomes;
          prop_budgeted_sweeps_canonical;
          Alcotest.test_case "equal fingerprints, degrading c95 sweep" `Quick
            test_fingerprint_c95_degrading;
          Alcotest.test_case "checkpoint rejects changed sweep options" `Quick
            test_checkpoint_rejects_changed_options;
          Alcotest.test_case "checkpoint resumes across domain counts" `Quick
            test_checkpoint_resumes_across_domains;
          Alcotest.test_case "unbudgeted checkpoint changes no record" `Slow
            test_unbudgeted_checkpoint;
        ] );
      ( "writer lock",
        [
          Alcotest.test_case "live holder refuses the lock" `Quick
            test_lock_live_holder;
          Alcotest.test_case "dead holder's lock is broken" `Quick
            test_lock_dead_holder;
          Alcotest.test_case "unreaped holder's lock is broken" `Quick
            test_lock_zombie_holder;
        ] );
    ]
