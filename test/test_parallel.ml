(* Tests for the multi-domain analysis path: bit-identical determinism
   of parallel vs sequential sweeps, exactness against exhaustive fault
   simulation, and the rebuild/cache-invalidation contract. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* The outcomes of one [Engine.sweep] under [config]. *)
let sweep config t faults = fst (Engine.sweep ~config t faults)

(* ------------------------------------------------------------------ *)
(* Determinism: a parallel sweep is bit-identical to a sequential one  *)

let suite_faults c =
  List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  @ List.map (fun b -> Fault.Bridged b) (Bridge.enumerate c)

let test_parallel_determinism name () =
  let c = Bench_suite.find name in
  let faults = suite_faults c in
  let sequential =
    sweep { Sweep_config.default with domains = 1 } (Engine.create c) faults
  in
  let parallel =
    sweep { Sweep_config.default with domains = 4 } (Engine.create c) faults
  in
  check int_t "same length" (List.length sequential) (List.length parallel);
  (* Bit-identical records, fault order included: polymorphic equality
     compares every float exactly. *)
  check bool_t "bit-identical result lists" true (sequential = parallel)

let test_parallel_determinism_under_rebuilds () =
  (* A never-binding fault budget collects on every worker's first
     fault and closes the epoch before each later one; results must
     still match the unbudgeted sequential run. *)
  let c = Bench_suite.find "c95" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  let sequential = sweep Sweep_config.default (Engine.create c) faults in
  let parallel =
    sweep
      { Sweep_config.default with fault_budget = Some 1_000_000; domains = 3 }
      (Engine.create c) faults
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
  let results =
    Engine.analyze_exact
      ~config:{ Sweep_config.default with domains = 2 }
      (Engine.create c) faults
  in
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
  let _ =
    sweep { Sweep_config.default with fault_budget = Some 1_000_000 } engine
      faults
  in
  check bool_t "budgeted reclamation bumps the generation" true
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
  let _ =
    sweep
      { Sweep_config.default with fault_budget = Some 1_000_000 }
      cr1.Experiments.engine faults
  in
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
