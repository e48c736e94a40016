(* Tests for the multi-domain analysis path: the watchdog's backoff,
   bit-identical determinism of parallel vs sequential analyze_all,
   exactness against exhaustive fault simulation, and the
   rebuild/cache-invalidation contract. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Watchdog patrol backoff                                             *)

let test_patrol_backoff_schedule () =
  (* The first rounds spin (no sleep at all), so a sweep finishing
     within microseconds pays no latency. *)
  for r = 0 to Parallel.patrol_spin_rounds - 1 do
    check bool_t "early rounds spin" true (Parallel.patrol_backoff_delay r = None)
  done;
  (* After the spins, sleeps are positive, monotone non-decreasing,
     strictly growing until the cap, and capped at 50 ms. *)
  let delay r =
    match Parallel.patrol_backoff_delay r with
    | Some s -> s
    | None -> Alcotest.fail (Printf.sprintf "round %d slipped back to spinning" r)
  in
  let prev = ref 0.0 in
  for r = Parallel.patrol_spin_rounds to Parallel.patrol_spin_rounds + 40 do
    let s = delay r in
    check bool_t "sleep positive" true (s > 0.0);
    check bool_t "monotone non-decreasing" true (s >= !prev);
    check bool_t "growth is exponential until the cap" true
      (s >= 2.0 *. !prev || s = 0.05);
    check bool_t "capped at 50 ms" true (s <= 0.05);
    prev := s
  done;
  check bool_t "cap reached" true (delay (Parallel.patrol_spin_rounds + 40) = 0.05);
  (* No overflow on absurd round counts (a very long wedge). *)
  check bool_t "huge rounds stay at the cap" true
    (Parallel.patrol_backoff_delay max_int = Some 0.05)

let test_supervised_queue_drains_with_backoff () =
  (* One slow batch wedges a worker; the idle workers patrol (through
     the backoff schedule), rescue nothing (the deadline is generous),
     and the queue still drains with every result present exactly once. *)
  let batches = Array.init 16 (fun i -> i) in
  let results =
    Parallel.steal_batches ~domains:4
      ~batch_deadline:(fun _ -> 30.0)
      ~init:(fun () -> ())
      ~process:(fun () i ->
        if i = 0 then Unix.sleepf 0.15;
        i * i)
      batches
  in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> check int_t "result correct" (i * i) v
      | Error _ -> Alcotest.fail "batch errored")
    results

(* ------------------------------------------------------------------ *)
(* Determinism: parallel analyze_all is bit-identical to sequential    *)

let suite_faults c =
  List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  @ List.map (fun b -> Fault.Bridged b) (Bridge.enumerate c)

let test_parallel_determinism name () =
  let c = Bench_suite.find name in
  let faults = suite_faults c in
  let sequential = Engine.analyze_all ~domains:1 (Engine.create c) faults in
  let parallel = Engine.analyze_all ~domains:4 (Engine.create c) faults in
  check int_t "same length" (List.length sequential) (List.length parallel);
  (* Bit-identical records, fault order included: polymorphic equality
     compares every float exactly. *)
  check bool_t "bit-identical result lists" true (sequential = parallel)

let test_parallel_determinism_under_rebuilds () =
  (* A tiny node budget forces rebuilds inside every worker; results
     must still match the unconstrained sequential run. *)
  let c = Bench_suite.find "c95" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  let sequential = Engine.analyze_all (Engine.create c) faults in
  let parallel =
    Engine.analyze_all ~node_budget:1 ~domains:3 (Engine.create c) faults
  in
  check bool_t "identical despite per-worker rebuilds" true
    (sequential = parallel)

(* ------------------------------------------------------------------ *)
(* Exactness: DP detectability = exhaustive simulation                 *)

let test_exact_vs_exhaustive name () =
  let c = Bench_suite.find name in
  assert (Circuit.num_inputs c <= 11);
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  let results = Engine.analyze_exact ~domains:2 (Engine.create c) faults in
  List.iter
    (fun (r : Engine.result) ->
      let exact = Fault_sim.exhaustive_detectability c r.Engine.fault in
      check (Alcotest.float 1e-12)
        (Printf.sprintf "%s: %s" name (Fault.to_string c r.Engine.fault))
        exact r.Engine.detectability)
    results

(* ------------------------------------------------------------------ *)
(* Rebuild generations and the experiments cache                       *)

let test_rebuild_generation_and_hooks () =
  let c = Bench_suite.find "c17" in
  let engine = Engine.create c in
  let fired = ref 0 in
  Engine.on_rebuild engine (fun () -> incr fired);
  check int_t "fresh engine at generation 0" 0 (Engine.generation engine);
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  let _ = Engine.analyze_all ~node_budget:1 engine faults in
  check bool_t "budget rebuilds bump the generation" true
    (Engine.generation engine > 0);
  check int_t "hook fired once per rebuild" (Engine.generation engine) !fired

let test_experiments_cache_evicted_on_rebuild () =
  Experiments.clear_cache ();
  let cr1 = Experiments.run "c17" in
  let cached = Experiments.run "c17" in
  check bool_t "second run hits the cache" true
    (cr1.Experiments.engine == cached.Experiments.engine);
  (* Force a rebuild of the cached engine: its BDD handles die, so the
     cache entry must go with it. *)
  let faults =
    List.map (fun f -> Fault.Stuck f)
      (Sa_fault.collapsed_faults cr1.Experiments.circuit)
  in
  let _ = Engine.analyze_all ~node_budget:1 cr1.Experiments.engine faults in
  let cr2 = Experiments.run "c17" in
  check bool_t "rebuild evicts the cached run" false
    (cr1.Experiments.engine == cr2.Experiments.engine);
  (* The recomputed run agrees with the old plain-data results. *)
  check bool_t "results unchanged across eviction" true
    (cr1.Experiments.sa_results = cr2.Experiments.sa_results);
  Experiments.clear_cache ()

(* ------------------------------------------------------------------ *)

let () =
  let det_cases =
    List.map
      (fun name ->
        Alcotest.test_case
          (Printf.sprintf "domains:1 = domains:4 (%s)" name)
          `Slow
          (test_parallel_determinism name))
      [ "c17"; "fulladder"; "c95"; "alu74181" ]
  in
  let exact_cases =
    List.map
      (fun name ->
        Alcotest.test_case
          (Printf.sprintf "DP = exhaustive simulation (%s)" name)
          `Slow (test_exact_vs_exhaustive name))
      [ "c17"; "fulladder"; "c95" ]
  in
  Alcotest.run "parallel"
    [
      ( "watchdog backoff",
        [
          Alcotest.test_case "patrol backoff schedule" `Quick
            test_patrol_backoff_schedule;
          Alcotest.test_case "supervised queue drains while patrolling" `Quick
            test_supervised_queue_drains_with_backoff;
        ] );
      ("determinism", det_cases);
      ( "robustness",
        [
          Alcotest.test_case "determinism under forced rebuilds" `Quick
            test_parallel_determinism_under_rebuilds;
        ] );
      ("exactness", exact_cases);
      ( "rebuild contract",
        [
          Alcotest.test_case "generation counter and hooks" `Quick
            test_rebuild_generation_and_hooks;
          Alcotest.test_case "experiments cache evicted on rebuild" `Quick
            test_experiments_cache_evicted_on_rebuild;
        ] );
    ]
