(* Tests for the parallel sweep and the BDD mark-sweep collector:
   steal_batches alignment and error containment (with and without the
   watchdog), bit-identical equivalence of the shared-snapshot sweep
   with the sequential one (property-tested over random circuits, fault
   mixes and domain counts), the sequential sweep's cone-local visiting
   order, the snapshot sweep's batches per domain, the domain count's
   choice between the two sweeps,
   frozen-snapshot semantics (sealed managers reject mutation, forks
   share the frozen tier read-only, concurrent readers agree), and
   Bdd.collect preserving the semantics of registered roots while
   reclaiming garbage. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* The outcomes of one [Engine.sweep] under [config]. *)
let sweep config t faults = fst (Engine.sweep ~config t faults)

(* ------------------------------------------------------------------ *)
(* steal_batches, with and without the watchdog                        *)

(* Both queue shapes: a worker that runs dry returns, or patrols under a
   deadline generous enough never to duplicate a batch. *)
let deadlines = [ None; Some (fun _ -> 30.0) ]

let test_steal_batches_aligned () =
  List.iter
    (fun batch_deadline ->
      List.iter
        (fun domains ->
          let batches =
            [| [| 1; 2 |]; [| 3 |]; [| 4; 5; 6 |]; [||]; [| 7 |] |]
          in
          let results =
            Parallel.steal_batches ~domains ?batch_deadline
              ~init:(fun () -> ref 0)
              ~process:(fun acc batch ->
                Array.iter (fun x -> acc := !acc + x) batch;
                Array.fold_left ( + ) 0 batch)
              batches
          in
          check bool_t
            (Printf.sprintf "results index-aligned at %d domains" domains)
            true
            (results = [| Ok 3; Ok 3; Ok 15; Ok 0; Ok 7 |]))
        [ 1; 2; 4 ])
    deadlines

let test_steal_batches_contains_errors () =
  List.iter
    (fun batch_deadline ->
      let batches = [| [| 1 |]; [| 0 |]; [| 2 |] |] in
      let results =
        Parallel.steal_batches ~domains:2 ?batch_deadline
          ~init:(fun () -> ())
          ~process:(fun () batch ->
            if batch.(0) = 0 then failwith "poison" else batch.(0) * 10)
          batches
      in
      check bool_t "good batches survive a poisoned one" true
        (results.(0) = Ok 10 && results.(2) = Ok 20);
      check bool_t "poisoned batch contained as Error" true
        (match results.(1) with
        | Error (Failure msg) -> msg = "poison"
        | _ -> false))
    deadlines

(* ------------------------------------------------------------------ *)
(* The snapshot sweep is bit-identical to the sequential one           *)

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

let prop_parallel_equals_sequential =
  let test seed =
    let rng = Prng.create ~seed:(seed + 4000) in
    let c =
      Generate.random ~seed:(seed + 1) ~inputs:(5 + Prng.int rng 3)
        ~gates:(10 + Prng.int rng 20)
        ~outputs:(1 + Prng.int rng 3)
    in
    let faults = mixed_faults rng c in
    let domains = 1 + Prng.int rng 5 in
    let sequential =
      sweep { Sweep_config.default with domains = 1 } (Engine.create c) faults
    in
    (* Polymorphic equality compares every float bit for bit, fault
       order included. *)
    sweep { Sweep_config.default with domains } (Engine.create c) faults
    = sequential
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40
       ~name:
         "static and snapshot = sequential on random circuits, faults and \
          domains"
       QCheck.small_nat test)

let parallel_benchmarks () =
  List.iter
    (fun name ->
      let c = Bench_suite.find name in
      let faults =
        List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
        @ List.map (fun b -> Fault.Bridged b) (Bridge.enumerate c)
      in
      let sequential =
        sweep { Sweep_config.default with domains = 1 } (Engine.create c) faults
      in
      List.iter
        (fun domains ->
          let parallel =
            sweep { Sweep_config.default with domains } (Engine.create c) faults
          in
          check bool_t
            (Printf.sprintf "%s bit-identical at %d domains" name domains)
            true (sequential = parallel))
        [ 2; 3 ])
    [ "c17"; "fulladder"; "c95" ]

let parallel_under_gc_pressure domain_counts () =
  (* A never-binding fault budget collects on every worker's first
     fault and closes the epoch before each later one; results must
     still match the unbudgeted sequential run. *)
  let c = Bench_suite.find "c95" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  let sequential = sweep Sweep_config.default (Engine.create c) faults in
  List.iter
    (fun domains ->
      let parallel =
        sweep
          {
            Sweep_config.default with
            fault_budget = Some 1_000_000;
            domains;
          }
          (Engine.create c) faults
      in
      check bool_t
        (Printf.sprintf "identical under GC pressure at %d domains" domains)
        true (sequential = parallel))
    domain_counts

(* ------------------------------------------------------------------ *)
(* The sequential sweep visits faults in cone-local order              *)

let lowest_site fault = List.fold_left min max_int (Fault.sites fault)

(* The one-domain sweep runs its faults sorted by (lowest site net,
   fault), whatever order they come in, and merges the outcomes back
   into input order.  c499's sweep spans several epoch regions, so the
   work counters would show any dependence on the input order. *)
let test_static_visit_order () =
  let c = Bench_suite.find "c499" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  let run faults =
    let seen = ref [] in
    let outcomes, stats =
      Engine.sweep
        ~on_outcome:(fun i _ -> seen := i :: !seen)
        (Engine.create c) faults
    in
    (outcomes, stats, List.rev !seen)
  in
  let forward, fs, seen = run faults in
  let backward, bs, _ = run (List.rev faults) in
  check bool_t "the sweep spans several epoch regions" true
    (fs.Engine.epoch_resets > 1);
  check bool_t "outcomes equal fault for fault, in input order" true
    (List.rev backward = forward);
  check int_t "apply steps independent of input order" fs.Engine.apply_steps
    bs.Engine.apply_steps;
  check int_t "nodes allocated independent of input order"
    fs.Engine.nodes_allocated bs.Engine.nodes_allocated;
  check int_t "epoch resets independent of input order"
    fs.Engine.epoch_resets bs.Engine.epoch_resets;
  let expected =
    List.mapi (fun i f -> (i, f)) faults
    |> List.stable_sort (fun (_, a) (_, b) ->
           match Int.compare (lowest_site a) (lowest_site b) with
           | 0 -> Fault.compare a b
           | d -> d)
    |> List.map fst
  in
  check (Alcotest.list int_t) "on_outcome sees (lowest site, fault) order"
    expected seen

(* ------------------------------------------------------------------ *)
(* Snapshot batches: several per domain                                *)

(* A multi-domain snapshot sweep forms at least four cone batches per
   domain, so idle domains can steal work off a heavy one, and still
   answers exactly what the sequential sweep does. *)
let test_snapshot_batches_per_domain () =
  List.iter
    (fun name ->
      let c = Bench_suite.find name in
      let faults =
        List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
      in
      let reference = sweep Sweep_config.default (Engine.create c) faults in
      List.iter
        (fun domains ->
          let outcomes, stats =
            Engine.sweep
              ~config:{ Sweep_config.default with domains }
              (Engine.create c) faults
          in
          check bool_t
            (Printf.sprintf "%s snapshot@%d: >= %d batches (got %d)" name
               domains (4 * domains) stats.Engine.batch_count)
            true
            (stats.Engine.batch_count >= 4 * domains);
          check bool_t
            (Printf.sprintf "%s snapshot@%d = static@1" name domains)
            true (outcomes = reference))
        [ 2; 3 ])
    [ "c432"; "c499" ]

(* ------------------------------------------------------------------ *)
(* Frozen snapshots: seal/fork semantics and the snapshot sweep        *)

let test_sealed_rejects_mutation () =
  let m = Bdd.create 2 in
  (* The standalone x0 node is registered too: it is not a subgraph of
     x0∧x1, so the seal's collect would otherwise reclaim it. *)
  let roots = [| Bdd.band m (Bdd.var m 0) (Bdd.var m 1); Bdd.var m 0 |] in
  ignore (Bdd.register m roots : Bdd.registration);
  Bdd.seal m;
  (* The seal collects, so registered roots were remapped in place. *)
  let f = roots.(0) in
  check bool_t "manager reports sealed" true (Bdd.is_sealed m);
  check bool_t "arena canonical after seal" true (Bdd.check_arena m);
  check (Alcotest.float 0.0) "reads still served" 0.25
    (Bdd.sat_fraction m f);
  check bool_t "allocation-free operations still work" true
    (Bdd.band m f f = f && Bdd.var m 0 = roots.(1));
  check bool_t "fresh allocation raises Sealed_manager" true
    (match Bdd.bxor m f roots.(1) with
    | exception Bdd.Sealed_manager -> true
    | (_ : Bdd.t) -> false);
  Bdd.unseal m;
  let g = Bdd.bxor m f roots.(1) in
  check bool_t "unsealing restores allocation" true
    (Bdd.check_invariants m g)

(* A random function as a XOR/AND/OR mix over literals (as in the
   Table 1 property test). *)
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

let test_fork_reads_match () =
  let m = Bdd.create 4 in
  let rng = Prng.create ~seed:77 in
  let roots = Array.init 3 (fun _ -> random_bdd rng m 4) in
  ignore (Bdd.register m roots : Bdd.registration);
  Bdd.seal m;
  check bool_t "arena canonical after seal" true (Bdd.check_arena m);
  let w = Bdd.fork m in
  check bool_t "fresh fork canonical" true (Bdd.check_arena w);
  Array.iter
    (fun f ->
      check (Alcotest.float 0.0) "sat fraction agrees across the fork"
        (Bdd.sat_fraction m f) (Bdd.sat_fraction w f);
      check int_t "size agrees across the fork" (Bdd.size m f)
        (Bdd.size w f))
    roots;
  (* Scratch growth in the fork never touches the shared frozen tier. *)
  let frozen = Bdd.frozen_nodes m in
  let g = Bdd.bxor w roots.(0) roots.(1) in
  check bool_t "the fork can allocate" true (Bdd.check_invariants w g);
  (* Scratch nodes over frozen children must not shadow a frozen one. *)
  check bool_t "fork canonical across both tiers" true (Bdd.check_arena w);
  check int_t "parent frozen tier unmoved" frozen (Bdd.frozen_nodes m);
  check bool_t "parent still sealed" true (Bdd.is_sealed m);
  Bdd.unseal m;
  (* A second seal migrates new scratch on top of the existing frozen
     tier; the merged tier gets one table over both generations. *)
  let more = [| Bdd.bxor m roots.(0) roots.(2); random_bdd rng m 4 |] in
  ignore (Bdd.register m more : Bdd.registration);
  check bool_t "unsealed arena canonical" true (Bdd.check_arena m);
  Bdd.seal m;
  check bool_t "arena canonical after a second seal" true (Bdd.check_arena m);
  let w2 = Bdd.fork m in
  ignore (Bdd.bor w2 more.(0) (Bdd.bnot w2 more.(1)) : Bdd.t);
  check bool_t "second-generation fork canonical" true (Bdd.check_arena w2);
  Bdd.unseal m

let test_snapshot_concurrent_readers () =
  (* Several domains read one sealed snapshot at once, each through its
     own fork, doing real per-fault analyses.  The TSan CI lane runs
     this test: any write to the shared frozen tier would trip it. *)
  let c = Bench_suite.find "c95" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
    |> List.filteri (fun i _ -> i < 12)
  in
  let t = Engine.create c in
  Engine.seal t;
  let work () =
    let w = Engine.fork t in
    List.map (Engine.analyze w) faults
  in
  let spawned = List.init 4 (fun _ -> Domain.spawn work) in
  let local = work () in
  let others = List.map Domain.join spawned in
  Engine.unseal t;
  let reference =
    Engine.exact_results (sweep Sweep_config.default (Engine.create c) faults)
  in
  check bool_t "caller's fork matches sequential" true (local = reference);
  List.iteri
    (fun i r ->
      check bool_t
        (Printf.sprintf "spawned reader %d matches sequential" i)
        true (r = reference))
    others

let test_snapshot_builds_good_functions_once () =
  (* The whole point of the snapshot sweep: the good functions are
     elaborated exactly once per sweep, not once per worker, so the
     count cannot depend on the domain count. *)
  let c = Bench_suite.find "c95" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  let runs =
    List.map
      (fun domains ->
        Engine.sweep
          ~config:{ Sweep_config.default with domains }
          (Engine.create c) faults)
      [ 1; 2; 4 ]
  in
  match runs with
  | (o0, s0) :: rest ->
    check int_t "good functions = gate count"
      (Circuit.num_gates c)
      s0.Engine.good_functions_built;
    List.iter
      (fun (o, s) ->
        check int_t "good_functions_built independent of domain count"
          s0.Engine.good_functions_built s.Engine.good_functions_built;
        check bool_t "outcomes independent of domain count" true (o = o0))
      rest
  | [] -> assert false

let test_snapshot_then_sequential_reuse () =
  (* A snapshot sweep seals and then unseals the engine: the same
     engine must remain fully usable for an ordinary sequential sweep
     afterwards, and both must match a fresh engine bit for bit. *)
  let c = Bench_suite.find "fulladder" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  let t = Engine.create c in
  let snap =
    sweep { Sweep_config.default with domains = 3 } t faults
  in
  check bool_t "engine is unsealed after the sweep" false (Engine.sealed t);
  let sequential = sweep Sweep_config.default t faults in
  let fresh = sweep Sweep_config.default (Engine.create c) faults in
  check bool_t "snapshot sweep matches fresh sequential" true (snap = fresh);
  check bool_t "post-snapshot sequential reuse matches" true
    (sequential = fresh)

let test_domains_pick_the_sweep () =
  (* No setting picks the sweep: one domain runs the loop on the calling
     engine (no seal, one batch), more run the snapshot sweep, and both
     answer bit for bit alike. *)
  let c = Bench_suite.find "c95" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
    @ List.map (fun b -> Fault.Bridged b) (Bridge.enumerate c)
  in
  let run domains =
    Engine.sweep
      ~config:{ Sweep_config.default with domains }
      (Engine.create c) faults
  in
  let seq, seq_stats = run 1 in
  let wide, wide_stats = run 3 in
  check bool_t "one domain runs static" true
    (seq_stats.Engine.scheduler = Engine.Static);
  check (Alcotest.float 0.0) "one domain seals nothing" 0.0
    seq_stats.Engine.snapshot_seconds;
  check int_t "one domain runs one batch" 1 seq_stats.Engine.batch_count;
  check bool_t "three domains run snapshot" true
    (wide_stats.Engine.scheduler = Engine.Snapshot);
  check int_t "good functions built once: the gate count"
    (Circuit.num_gates c) wide_stats.Engine.good_functions_built;
  check bool_t "outcomes equal bit for bit" true (wide = seq)

(* ------------------------------------------------------------------ *)
(* Bdd.collect: semantics preserved, garbage reclaimed                 *)

let prop_collect_preserves_roots =
  let test seed =
    let rng = Prng.create ~seed:(seed + 9000) in
    let vars = 5 + Prng.int rng 4 in
    let m = Bdd.create vars in
    let roots = Array.init (2 + Prng.int rng 4) (fun _ -> random_bdd rng m vars) in
    let reg = Bdd.register m roots in
    (* Garbage: unreferenced intermediates bloat the arena. *)
    for _ = 1 to 5 do
      ignore (random_bdd rng m vars : Bdd.t)
    done;
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
    let nodes_before = Bdd.allocated_nodes m in
    Bdd.collect m;
    let ok =
      snapshot () = before
      && Bdd.allocated_nodes m <= nodes_before
      && Array.for_all (fun f -> Bdd.check_invariants m f) roots
    in
    (* Collecting again with nothing registered reclaims everything but
       the terminals. *)
    Bdd.unregister m reg;
    Bdd.collect m;
    ok && Bdd.allocated_nodes m = 2
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60
       ~name:"collect preserves registered roots, reclaims garbage"
       QCheck.small_nat test)

let test_collect_extra_roots () =
  let m = Bdd.create 6 in
  let rng = Prng.create ~seed:11 in
  let keep = [| random_bdd rng m 6 |] in
  let frac = Bdd.sat_fraction m keep.(0) in
  for _ = 1 to 4 do
    ignore (random_bdd rng m 6 : Bdd.t)
  done;
  (* Not registered: passed as a one-off root instead. *)
  Bdd.collect ~roots:[ keep ] m;
  check (Alcotest.float 0.0) "one-off root survives with its semantics" frac
    (Bdd.sat_fraction m keep.(0));
  check bool_t "invariants hold on the compacted arena" true
    (Bdd.check_invariants m keep.(0))

let test_engine_collect_statistics_stable () =
  (* A sweep, a collection, and the same sweep again must agree with a
     fresh engine bit for bit — GC only renumbers, never re-derives. *)
  let c = Bench_suite.find "c95" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  let fresh = sweep Sweep_config.default (Engine.create c) faults in
  let engine = Engine.create c in
  let first = sweep Sweep_config.default engine faults in
  let nodes_before = Bdd.allocated_nodes (Engine.manager engine) in
  let gen_before = Engine.generation engine in
  let fired = ref 0 in
  Engine.on_rebuild engine (fun () -> incr fired);
  Engine.collect engine;
  check bool_t "collect never grows the arena" true
    (Bdd.allocated_nodes (Engine.manager engine) <= nodes_before);
  check int_t "collect bumps the generation" (gen_before + 1)
    (Engine.generation engine);
  check int_t "collect fires the rebuild hooks" 1 !fired;
  let again = sweep Sweep_config.default engine faults in
  check bool_t "pre-collect sweep matches a fresh engine" true (fresh = first);
  check bool_t "post-collect sweep matches a fresh engine" true (fresh = again)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "scheduler"
    [
      ( "stealing primitives",
        [
          Alcotest.test_case "steal_batches results index-aligned" `Quick
            test_steal_batches_aligned;
          Alcotest.test_case "steal_batches contains batch errors" `Quick
            test_steal_batches_contains_errors;
        ] );
      ( "parallel = sequential",
        [
          prop_parallel_equals_sequential;
          Alcotest.test_case "snapshot: benchmark circuits, mixed faults"
            `Slow parallel_benchmarks;
          Alcotest.test_case "static identical under GC pressure" `Quick
            (parallel_under_gc_pressure [ 1 ]);
          Alcotest.test_case "snapshot identical under GC pressure" `Quick
            (parallel_under_gc_pressure [ 2; 3 ]);
        ] );
      ( "visiting order",
        [
          Alcotest.test_case "static sweep independent of input order" `Quick
            test_static_visit_order;
        ] );
      ( "snapshot batches",
        [
          Alcotest.test_case "several batches per domain, same outcomes"
            `Slow test_snapshot_batches_per_domain;
        ] );
      ( "frozen snapshots",
        [
          Alcotest.test_case "sealed manager rejects mutation" `Quick
            test_sealed_rejects_mutation;
          Alcotest.test_case "fork reads match the parent" `Quick
            test_fork_reads_match;
          Alcotest.test_case "concurrent readers over one snapshot" `Quick
            test_snapshot_concurrent_readers;
          Alcotest.test_case "good functions built once per sweep" `Quick
            test_snapshot_builds_good_functions_once;
          Alcotest.test_case "engine reusable after snapshot sweep" `Quick
            test_snapshot_then_sequential_reuse;
          Alcotest.test_case "domains pick the sweep" `Quick
            test_domains_pick_the_sweep;
        ] );
      ( "mark-sweep collection",
        [
          prop_collect_preserves_roots;
          Alcotest.test_case "one-off roots survive" `Quick
            test_collect_extra_roots;
          Alcotest.test_case "engine statistics stable across collect" `Quick
            test_engine_collect_statistics_stable;
        ] );
    ]
