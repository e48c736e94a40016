(* Tests for the epoch/region scratch arena, the warm fork op-cache and
   the lifetime profiler: epoch-bracketed sweeps bit-identical to plain
   per-fault analysis (property-tested over random circuits, domain
   counts and reclamation triggers), survivors tenured intact
   across a close, collect/sift/seal failing loudly inside an open
   region, warm-cache hits returning canonical frozen handles, and the
   profiler's histogram staying on a deterministic logical clock. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* The outcomes of one [Engine.sweep] under [config]. *)
let sweep config t faults = fst (Engine.sweep ~config t faults)

(* A random function as a XOR/AND/OR mix over literals (the scheduler
   suite's generator). *)
let random_bdd rng m vars =
  let literal () =
    let v = Prng.int rng vars in
    if Prng.bool rng then Bdd.var m v else Bdd.nvar m v
  in
  let rec build depth =
    if depth = 0 then literal ()
    else
      let a = build (depth - 1) and b = build (depth - 1) in
      match Prng.int rng 3 with
      | 0 -> Bdd.band m a b
      | 1 -> Bdd.bor m a b
      | _ -> Bdd.bxor m a b
  in
  build 4

let mixed_faults rng c =
  let n = Circuit.num_gates c in
  let stucks =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  let bridges =
    Bridge.enumerate c
    |> List.filteri (fun i _ -> i mod 5 = Prng.int rng 5)
    |> List.map (fun b -> Fault.Bridged b)
  in
  let multis =
    List.init 3 (fun _ ->
        let a = Prng.int rng n in
        let b = (a + 1 + Prng.int rng (n - 1)) mod n in
        Fault.multi [ (a, Prng.bool rng); (b, Prng.bool rng) ])
  in
  stucks @ bridges @ multis

(* ------------------------------------------------------------------ *)
(* Bdd-level epoch mechanics                                           *)

let test_epoch_reclaims_wholesale () =
  let m = Bdd.create 6 in
  let rng = Prng.create ~seed:21 in
  let roots = Array.init 3 (fun _ -> random_bdd rng m 6) in
  ignore (Bdd.register m roots : Bdd.registration);
  let fracs = Array.map (Bdd.sat_fraction m) roots in
  let before = Bdd.allocated_nodes m in
  let e = Bdd.open_epoch m in
  check bool_t "epoch reported open" true (Bdd.epoch_open m);
  for _ = 1 to 6 do
    ignore (random_bdd rng m 6 : Bdd.t)
  done;
  check bool_t "region sees the scratch" true (Bdd.epoch_nodes m > 0);
  Bdd.close_epoch m e;
  check bool_t "epoch reported closed" false (Bdd.epoch_open m);
  check int_t "region reclaimed to the watermark" before
    (Bdd.allocated_nodes m);
  check int_t "reset counted" 1 (Bdd.epoch_resets m);
  check int_t "nothing tenured" 0 (Bdd.tenured_nodes m);
  Array.iteri
    (fun i f ->
      check (Alcotest.float 0.0) "pre-epoch root keeps its semantics"
        fracs.(i) (Bdd.sat_fraction m f);
      check bool_t "invariants hold" true (Bdd.check_invariants m f))
    roots

let test_epoch_tenures_survivors () =
  let m = Bdd.create 6 in
  let rng = Prng.create ~seed:22 in
  let base = random_bdd rng m 6 in
  let e = Bdd.open_epoch m in
  (* Survivors born inside the region, handed over at close: one through
     an explicit survivor array, one through a registered root array. *)
  let keep = [| random_bdd rng m 6 |] in
  let registered = [| random_bdd rng m 6 |] in
  ignore (Bdd.register m registered : Bdd.registration);
  for _ = 1 to 5 do
    ignore (random_bdd rng m 6 : Bdd.t)
  done;
  let keep_frac = Bdd.sat_fraction m keep.(0) in
  let reg_frac = Bdd.sat_fraction m registered.(0) in
  let base_frac = Bdd.sat_fraction m base in
  Bdd.close_epoch ~survivors:[ keep ] m e;
  check bool_t "survivors tenured" true (Bdd.tenured_nodes m > 0);
  check (Alcotest.float 0.0) "explicit survivor keeps its semantics"
    keep_frac
    (Bdd.sat_fraction m keep.(0));
  check (Alcotest.float 0.0) "registered survivor keeps its semantics"
    reg_frac
    (Bdd.sat_fraction m registered.(0));
  check (Alcotest.float 0.0) "sub-watermark node untouched" base_frac
    (Bdd.sat_fraction m base);
  check bool_t "invariants hold after tenure" true
    (Bdd.check_invariants m keep.(0)
    && Bdd.check_invariants m registered.(0)
    && Bdd.check_invariants m base);
  (* Tenured handles stay usable as operands of fresh work. *)
  let combined = Bdd.band m keep.(0) registered.(0) in
  check bool_t "tenured survivors compose" true
    (Bdd.check_invariants m combined)

let expect_invalid name f =
  check bool_t name true
    (match f () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_epoch_guards_fail_loudly () =
  let m = Bdd.create 4 in
  let rng = Prng.create ~seed:23 in
  let roots = [| random_bdd rng m 4 |] in
  ignore (Bdd.register m roots : Bdd.registration);
  let e = Bdd.open_epoch m in
  expect_invalid "second open_epoch raises" (fun () ->
      ignore (Bdd.open_epoch m : Bdd.epoch));
  expect_invalid "collect inside an open epoch raises" (fun () ->
      Bdd.collect m);
  expect_invalid "sift inside an open epoch raises" (fun () ->
      ignore (Bdd.sift m : int * int));
  expect_invalid "seal inside an open epoch raises" (fun () -> Bdd.seal m);
  Bdd.close_epoch m e;
  expect_invalid "closing twice raises" (fun () -> Bdd.close_epoch m e);
  (* With the epoch closed, the guarded operations work again. *)
  Bdd.collect m;
  check bool_t "collect composes after close" true
    (Bdd.check_invariants m roots.(0))

(* [close_epoch] takes each region node out of the unique table one by
   one while the region is under half the table's occupancy, and wipes
   and rebuilds the whole table from there up.  Either way every node
   must stay findable by its own probe and no triple may appear twice,
   with tenured survivors re-entered under their new handles.

   The table starts at 4096 slots and doubles past 2/3 load (2730,
   then 5461 nodes).  The per-node case fills the arena from 3500 to
   5600 nodes, so the region straddles a rehash: before one, region
   nodes sit behind every older node of their probe chains, and even a
   deletion that broke chains could not strand a survivor; after it,
   the two are interleaved. *)
let test_epoch_close_keeps_arena_canonical () =
  let fill rng m upto =
    let last = ref (Bdd.zero m) in
    while Bdd.scratch_nodes m < upto do
      last := random_bdd rng m 12
    done;
    !last
  in
  let close ~before ~upto =
    let m = Bdd.create 12 in
    let rng = Prng.create ~seed:(24 + before) in
    let roots = [| fill rng m before |] in
    ignore (Bdd.register m roots : Bdd.registration);
    let e = Bdd.open_epoch m in
    let keep = [| fill rng m upto |] in
    let region = Bdd.epoch_nodes m in
    (* The table holds every scratch node but the two terminals. *)
    let occupancy = Bdd.scratch_nodes m - 2 in
    Bdd.close_epoch ~survivors:[ keep ] m e;
    check bool_t "survivors tenured" true (Bdd.tenured_nodes m > 0);
    check bool_t "arena canonical after close" true (Bdd.check_arena m);
    (* Fresh work over the tenured handles probes the table the close
       left behind. *)
    let g = Bdd.bxor m keep.(0) roots.(0) in
    check bool_t "arena canonical after fresh work" true (Bdd.check_arena m);
    check bool_t "fresh work well formed" true (Bdd.check_invariants m g);
    2 * region >= occupancy
  in
  check bool_t "small region takes the per-node deletion branch" false
    (close ~before:3500 ~upto:5600);
  check bool_t "large region takes the whole-table rebuild branch" true
    (close ~before:300 ~upto:2600)

let prop_epoch_preserves_roots =
  let test seed =
    let rng = Prng.create ~seed:(seed + 13000) in
    let vars = 5 + Prng.int rng 4 in
    let m = Bdd.create vars in
    let roots =
      Array.init (2 + Prng.int rng 4) (fun _ -> random_bdd rng m vars)
    in
    ignore (Bdd.register m roots : Bdd.registration);
    let assignments =
      List.init 4 (fun _ -> Array.init vars (fun _ -> Prng.bool rng))
    in
    let snapshot () =
      Array.map
        (fun f ->
          ( Bdd.sat_fraction m f,
            Bdd.size m f,
            Bdd.support m f,
            List.map (fun a -> Bdd.eval m f (fun v -> a.(v))) assignments ))
        roots
    in
    let before = snapshot () in
    let mark = Bdd.allocated_nodes m in
    (* Several epochs in sequence, each leaving garbage behind; roots
       mutated mid-epoch exercise the tenure path. *)
    let ok = ref true in
    for round = 1 to 3 do
      let e = Bdd.open_epoch m in
      for _ = 1 to 3 do
        ignore (random_bdd rng m vars : Bdd.t)
      done;
      if round = 2 then roots.(0) <- random_bdd rng m vars;
      Bdd.close_epoch m e;
      ok :=
        !ok
        && Bdd.allocated_nodes m <= mark + Bdd.tenured_nodes m
        && Bdd.check_arena m
    done;
    let after = snapshot () in
    (* Every root but the replaced one kept its exact observables. *)
    !ok
    && Array.for_all (fun f -> Bdd.check_invariants m f) roots
    && Array.length before = Array.length after
    && Array.for_all2 ( = )
         (Array.sub before 1 (Array.length before - 1))
         (Array.sub after 1 (Array.length after - 1))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60
       ~name:"epoch close preserves roots, tenures survivors, reclaims rest"
       QCheck.small_nat test)

(* ------------------------------------------------------------------ *)
(* Engine-level: epoch-bracketed sweeps = plain per-fault analysis     *)

let prop_epoch_sweeps_bit_identical =
  let test seed =
    let rng = Prng.create ~seed:(seed + 14000) in
    let c =
      Generate.random ~seed:(seed + 1) ~inputs:(5 + Prng.int rng 3)
        ~gates:(10 + Prng.int rng 20)
        ~outputs:(1 + Prng.int rng 3)
    in
    let faults = mixed_faults rng c in
    let domains = 1 + Prng.int rng 5 in
    (* The reference involves no sweep and no epoch: [Engine.analyze]
       fault by fault on a fresh engine.  The variants reach both
       reclamation rules: unbudgeted (regions close when they pass the
       region size, and at sweep end) and budgeted (a collection on
       each worker's first fault, an epoch close before every later
       one).  The budget never binds, so every outcome is exact and the
       comparison is exact. *)
    let reference =
      let t = Engine.create c in
      List.map (fun f -> Engine.Exact (Engine.analyze t f)) faults
    in
    List.for_all
      (fun variant ->
        sweep
          { variant with Sweep_config.domains }
          (Engine.create c) faults
        = reference)
      [
        Sweep_config.default;
        { Sweep_config.default with fault_budget = Some 1_000_000 };
      ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25
       ~name:
         "epoch-bracketed sweeps bit-identical to plain per-fault analysis \
          across domain counts and reclamation triggers"
       QCheck.small_nat test)

let test_budgeted_epochs_identical_per_fault () =
  (* In a budgeted sweep a close restores the canonical arena the
     worker's first collect produced, bit for bit — so even budget
     classification (which depends on the arena state at fault start)
     matches a sweep of that fault alone on a fresh engine, whatever
     ran before it. *)
  let c = Bench_suite.find "c95" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  (* Pin declaration order: the topology oracle's default order tames
     c95 enough that the tight budget would stop degrading anything. *)
  let run faults =
    sweep
      {
        Sweep_config.default with
        fault_budget = Some 50;
        reorder = false;
      }
      (Engine.create ~heuristic:Ordering.Natural c)
      faults
  in
  let swept = run faults in
  check bool_t "budgeted outcomes identical to one sweep per fault" true
    (swept = List.concat_map (fun f -> run [ f ]) faults);
  check bool_t "some fault actually degraded under the tight budget" true
    (List.exists (fun o -> not (Engine.is_exact o)) swept)

let test_epoch_resets_counted_in_stats () =
  (* A budgeted sequential sweep collects once, for its first fault,
     and from then on restores the canonical arena by closing each
     fault's epoch; the last close comes at sweep end.  This budget
     never binds on c95.  Without a budget outcomes are canonical on
     any arena, so regions close only when they fill. *)
  let c = Bench_suite.find "c95" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  let run config = Engine.sweep ~config (Engine.create c) faults in
  let outcomes, stats =
    run
      {
        Sweep_config.default with
        fault_budget = Some 1_000_000;
      }
  in
  check bool_t "every fault exact" true (List.for_all Engine.is_exact outcomes);
  check int_t "one region reclaimed per fault" (List.length faults)
    stats.Engine.epoch_resets;
  check int_t "one collection, for the first fault" 1
    stats.Engine.gc_collections;
  let plain, plain_stats = run Sweep_config.default in
  check bool_t "unbudgeted outcomes are the budgeted ones" true
    (plain = outcomes);
  check int_t "unbudgeted sweep closes one region, at sweep end" 1
    plain_stats.Engine.epoch_resets

(* Collections are the budgeted sweep's first-fault canonicalisation and
   nothing else: epochs alone reclaim an unbudgeted c499 sweep's
   scratch, and a budgeted one collects exactly once per worker. *)
let test_collections_per_worker () =
  let c = Bench_suite.find "c499" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  List.iter
    (fun domains ->
      let collections fault_budget =
        let _, stats =
          Engine.sweep
            ~config:{ Sweep_config.default with fault_budget; domains }
            (Engine.create c) faults
        in
        stats.Engine.gc_collections
      in
      check int_t
        (Printf.sprintf "unbudgeted sweep at %d domain(s) never collects"
           domains)
        0 (collections None);
      check int_t
        (Printf.sprintf "budgeted sweep at %d domain(s) collects once a worker"
           domains)
        domains
        (collections (Some 1_000_000)))
    [ 1; 2 ]

let test_engine_usable_after_epoch_sweep () =
  (* A sweep leaves no epoch dangling: seal/collect (which refuse to run
     inside an open region) must work immediately afterwards. *)
  let c = Bench_suite.find "fulladder" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  let t = Engine.create c in
  let first =
    sweep { Sweep_config.default with fault_budget = Some 1_000_000 } t faults
  in
  Engine.collect t;
  Engine.seal t;
  check bool_t "sealed after epoch sweep" true (Engine.sealed t);
  Engine.unseal t;
  let again = sweep Sweep_config.default t faults in
  check bool_t "post-seal sweep still bit-identical" true (first = again)

(* ------------------------------------------------------------------ *)
(* Warm fork op-caches                                                 *)

let test_warm_cache_serves_forks () =
  let m = Bdd.create 6 in
  let rng = Prng.create ~seed:31 in
  let a = random_bdd rng m 6 and b = random_bdd rng m 6 in
  (* The product is registered alongside its operands — as gate
     functions are in [Symbolic] — so the build-phase memo entry
     (band, a, b) -> product survives the seal's collect and lands in
     the warm cache. *)
  let roots = [| a; b; Bdd.band m a b |] in
  ignore (Bdd.register m roots : Bdd.registration);
  let product_frac = Bdd.sat_fraction m roots.(2) in
  Bdd.seal m;
  let w = Bdd.fork m in
  check int_t "fork starts with no warm hits" 0 (Bdd.warm_cache_hits w);
  (* Same operands, frozen handles: the fork's private cache is cold, so
     this must be answered by the shared warm cache, without allocating
     (the canonical result is itself frozen). *)
  let allocs0 = Bdd.nodes_allocated w in
  let product' = Bdd.band w roots.(0) roots.(1) in
  check bool_t "warm cache hit recorded" true (Bdd.warm_cache_hits w > 0);
  check int_t "warm hit allocates nothing" allocs0 (Bdd.nodes_allocated w);
  check (Alcotest.float 0.0) "warm result is the canonical product"
    product_frac
    (Bdd.sat_fraction w product');
  check bool_t "warm result is the frozen handle itself" true
    (product' = roots.(2));
  (* A second fork shares the same warm cache by reference. *)
  let w2 = Bdd.fork m in
  let product'' = Bdd.band w2 roots.(0) roots.(1) in
  check bool_t "second fork hits too" true (Bdd.warm_cache_hits w2 > 0);
  check bool_t "forks agree on the canonical handle" true
    (product' = product'');
  Bdd.unseal m

let test_snapshot_sweep_with_warm_cache_matches () =
  let c = Bench_suite.find "c95" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
    @ List.map (fun b -> Fault.Bridged b) (Bridge.enumerate c)
  in
  let sequential = sweep Sweep_config.default (Engine.create c) faults in
  let outcomes, stats =
    Engine.sweep
      ~config:
        { Sweep_config.default with domains = 2 }
      (Engine.create c) faults
  in
  check bool_t "snapshot sweep bit-identical with warm caches" true
    (outcomes = sequential);
  check bool_t "warm cache reported some hits" true
    (stats.Engine.warm_cache_hits > 0)

(* ------------------------------------------------------------------ *)
(* Cone-batch floor                                                    *)

let test_tiny_circuit_batch_floor () =
  (* c17 at 8 domains used to shred into ~25 batches; the floor must
     collapse a tiny sweep to at most one batch per domain. *)
  let c = Bench_suite.find "c17" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
    @ List.map (fun b -> Fault.Bridged b) (Bridge.enumerate c)
  in
  let sequential = sweep Sweep_config.default (Engine.create c) faults in
  let outcomes, stats =
    Engine.sweep
      ~config:
        { Sweep_config.default with domains = 8 }
      (Engine.create c) faults
  in
  check bool_t "still bit-identical" true (outcomes = sequential);
  check bool_t
    (Printf.sprintf "at most one batch per domain (got %d)"
       stats.Engine.batch_count)
    true
    (stats.Engine.batch_count <= 8)

(* ------------------------------------------------------------------ *)
(* Lifetime profiler                                                   *)

let test_profile_histogram_deterministic () =
  let c = Bench_suite.find "c95" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  let run () =
    let t = Engine.create ~mem_profile:true c in
    (* Budgeted, so every fault's region is closed and its deaths
       observed (the budget never binds on c95). *)
    let outcomes =
      sweep { Sweep_config.default with fault_budget = Some 1_000_000 } t faults
    in
    (outcomes, Bdd.lifetime_profile (Engine.manager t))
  in
  let o1, p1 = run () in
  let o2, p2 = run () in
  check bool_t "profiled sweep outcomes unchanged" true (o1 = o2);
  check bool_t "logical clock identical across runs" true
    (p1.Bdd.lp_clock = p2.Bdd.lp_clock);
  check bool_t "death counts identical across runs" true
    (p1.Bdd.lp_deaths = p2.Bdd.lp_deaths);
  check bool_t "histograms identical across runs" true
    (p1.Bdd.lp_buckets = p2.Bdd.lp_buckets);
  check bool_t "epoch closes observed deaths" true (p1.Bdd.lp_deaths > 0);
  check int_t "histogram mass equals observed deaths" p1.Bdd.lp_deaths
    (Array.fold_left ( + ) 0 p1.Bdd.lp_buckets)

let test_profile_does_not_change_results () =
  let c = Bench_suite.find "fulladder" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  let plain = sweep Sweep_config.default (Engine.create c) faults in
  let profiled =
    sweep Sweep_config.default (Engine.create ~mem_profile:true c) faults
  in
  check bool_t "profiling is observation-only" true (plain = profiled)

(* A budgeted sweep whose first fault needs the retry and the rescue:
   the ladder runs on builds of its own, so the profiled manager is the
   one the engine started with, and its clock covers the fault after
   the ladder too. *)
let test_profile_clock_spans_ladder () =
  let c = Bench_suite.find "c95" in
  let nth i = Fault.Stuck (List.nth (Sa_fault.collapsed_faults c) i) in
  let f_retries = nth 5 and f_ok = nth 9 in
  (* Just what the second fault allocates on its own: the first fault
     needs far more, even at the retry's 4x. *)
  let budget =
    let e = Engine.create c in
    let before = Bdd.allocated_nodes (Engine.manager e) in
    ignore (Engine.analyze e f_ok);
    Bdd.allocated_nodes (Engine.manager e) - before
  in
  let config =
    {
      Sweep_config.default with
      fault_budget = Some budget;
    }
  in
  let t = Engine.create ~mem_profile:true c in
  let m = Engine.manager t in
  let clock0 = (Bdd.lifetime_profile m).Bdd.lp_clock in
  let _, stats = Engine.sweep ~config t [ f_retries; f_ok ] in
  check int_t "the first fault climbed the ladder" 1
    stats.Engine.retry_attempts;
  check bool_t "the sweep kept the engine's manager" true
    (Engine.manager t == m);
  let _, alone = Engine.sweep ~config (Engine.create c) [ f_ok ] in
  let clock = (Bdd.lifetime_profile m).Bdd.lp_clock - clock0 in
  check bool_t
    (Printf.sprintf "clock %d covers the last fault's %d steps" clock
       alone.Engine.apply_steps)
    true
    (clock >= alone.Engine.apply_steps)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "epoch"
    [
      ( "epoch mechanics",
        [
          Alcotest.test_case "region reclaimed wholesale" `Quick
            test_epoch_reclaims_wholesale;
          Alcotest.test_case "survivors tenured intact" `Quick
            test_epoch_tenures_survivors;
          Alcotest.test_case "guards fail loudly" `Quick
            test_epoch_guards_fail_loudly;
          Alcotest.test_case "close keeps the arena canonical" `Quick
            test_epoch_close_keeps_arena_canonical;
          prop_epoch_preserves_roots;
        ] );
      ( "epoch sweeps",
        [
          prop_epoch_sweeps_bit_identical;
          Alcotest.test_case "budgeted sweep identical to one per fault"
            `Quick test_budgeted_epochs_identical_per_fault;
          Alcotest.test_case "epoch resets surface in sweep stats" `Quick
            test_epoch_resets_counted_in_stats;
          Alcotest.test_case "engine reusable after epoch sweep" `Quick
            test_engine_usable_after_epoch_sweep;
          Alcotest.test_case "collections: none unbudgeted, one per worker"
            `Quick test_collections_per_worker;
        ] );
      ( "warm op-caches",
        [
          Alcotest.test_case "fork served by the warm cache" `Quick
            test_warm_cache_serves_forks;
          Alcotest.test_case "snapshot sweep matches with warm caches" `Quick
            test_snapshot_sweep_with_warm_cache_matches;
        ] );
      ( "batch floor",
        [
          Alcotest.test_case "tiny circuits collapse to one batch per domain"
            `Quick test_tiny_circuit_batch_floor;
        ] );
      ( "lifetime profiler",
        [
          Alcotest.test_case "histogram deterministic on the logical clock"
            `Quick test_profile_histogram_deterministic;
          Alcotest.test_case "profiling never changes outcomes" `Quick
            test_profile_does_not_change_results;
          Alcotest.test_case "clock spans the ladder" `Quick
            test_profile_clock_spans_ladder;
        ] );
    ]
