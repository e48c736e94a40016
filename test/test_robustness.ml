(* Fault-tolerance layer: budgeted BDD growth (Bdd.with_budget /
   Budget_exceeded), per-fault isolation with structured outcomes and
   the top-budget retry (Engine.sweep), and supervised domain
   workers (Parallel.steal_batches).  The central property: a
   sweep containing hostile faults completes, returns an outcome for
   every fault in input order, and every Exact outcome is bit-identical
   to a clean sequential run. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* The outcomes of one [Engine.sweep] under [config]. *)
let sweep config t faults = fst (Engine.sweep ~config t faults)

(* ------------------------------------------------------------------ *)
(* Bdd.with_budget                                                     *)

(* A function needing plenty of fresh nodes on an empty manager. *)
let build_xor_chain m n = Bdd.bxor_list m (List.init n (Bdd.var m))

let test_budget_raises_mid_apply () =
  let m = Bdd.create 24 in
  let blown =
    try
      ignore (Bdd.with_budget m ~budget:5 (fun () -> build_xor_chain m 24));
      None
    with Bdd.Budget_exceeded { nodes; budget } -> Some (nodes, budget)
  in
  (match blown with
  | None -> Alcotest.fail "tiny budget did not raise"
  | Some (nodes, budget) ->
    check int_t "budget field" 5 budget;
    (* The raise happens before the (budget+1)-th allocation. *)
    check int_t "nodes field" 5 nodes);
  (* The arena is still consistent and the manager fully usable. *)
  let f = build_xor_chain m 24 in
  check bool_t "manager usable after blown budget" true
    (Bdd.check_invariants m f);
  (* Parity of n variables needs 2n-1 nodes: plenty more than the blown
     budget, so unlimited allocation is demonstrably restored. *)
  check int_t "budget window restored (unlimited again)" ((2 * 24) - 1)
    (Bdd.size m f)

let test_budget_success_and_restore () =
  let m = Bdd.create 16 in
  let f = Bdd.with_budget m ~budget:1_000 (fun () -> build_xor_chain m 16) in
  check bool_t "computation under ample budget is unchanged" true
    (Bdd.equal f (build_xor_chain m 16))

let test_budget_windows_nest () =
  let m = Bdd.create 24 in
  let outer_blew =
    try
      Bdd.with_budget m ~budget:30 (fun () ->
          (* The inner window blows; its allocations still count against
             the outer window, which the follow-up work then exhausts. *)
          (try
             ignore
               (Bdd.with_budget m ~budget:20 (fun () -> build_xor_chain m 24))
           with Bdd.Budget_exceeded _ -> ());
          ignore (build_xor_chain m 24);
          false)
    with Bdd.Budget_exceeded { budget; _ } -> budget = 30
  in
  check bool_t "inner allocations charged to the outer window" true
    outer_blew

(* ------------------------------------------------------------------ *)
(* Bdd.with_deadline                                                   *)

(* Keep rebuilding until the polling check in [mk] trips — bounded
   iterations so a broken deadline can't hang the suite. *)
let test_deadline_raises_mid_apply () =
  let m = Bdd.create 24 in
  let blown =
    try
      Bdd.with_deadline m ~deadline_ms:20.0 (fun () ->
          for _ = 1 to 1_000_000 do
            ignore (build_xor_chain m 24);
            Bdd.clear_caches m
          done;
          None)
    with Bdd.Deadline_exceeded { elapsed_ms; deadline_ms } ->
      Some (elapsed_ms, deadline_ms)
  in
  (match blown with
  | None -> Alcotest.fail "20ms deadline did not fire in a hot loop"
  | Some (elapsed_ms, deadline_ms) ->
    check bool_t "deadline field" true (deadline_ms = 20.0);
    check bool_t "elapsed covers the window" true (elapsed_ms >= 20.0));
  (* The window is closed again: plenty of work completes untimed. *)
  let f = build_xor_chain m 24 in
  check bool_t "manager usable after expired deadline" true
    (Bdd.check_invariants m f)

let test_deadline_windows_nest () =
  let m = Bdd.create 24 in
  (* An inner window can only tighten the outer one; when the tiny inner
     window blows, the generous outer window must survive it. *)
  let survived =
    Bdd.with_deadline m ~deadline_ms:60_000.0 (fun () ->
        (try
           Bdd.with_deadline m ~deadline_ms:10.0 (fun () ->
               for _ = 1 to 1_000_000 do
                 ignore (build_xor_chain m 24);
                 Bdd.clear_caches m
               done)
         with Bdd.Deadline_exceeded { deadline_ms; _ } ->
           check bool_t "inner window reported" true (deadline_ms = 10.0));
        ignore (build_xor_chain m 24);
        true)
  in
  check bool_t "outer window survives an inner expiry" true survived

let test_deadline_rejects_nonpositive () =
  let m = Bdd.create 4 in
  check bool_t "non-positive deadline rejected" true
    (try
       ignore (Bdd.with_deadline m ~deadline_ms:0.0 (fun () -> 0));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Bdd.collect inside budget / deadline windows                        *)

let test_collect_inside_budget_window () =
  let m = Bdd.create 16 in
  let blown =
    try
      Bdd.with_budget m ~budget:200 (fun () ->
          let f = build_xor_chain m 16 in
          let syndrome = Bdd.sat_fraction m f in
          let used = Bdd.allocated_nodes m in
          (* Compaction rebuilds every survivor with [insert_node], not
             [mk]: it must charge nothing against the open window... *)
          Bdd.collect ~roots:[ [| f |] ] m;
          check bool_t "collect charges no budget" true
            (Bdd.allocated_nodes m <= used);
          (* ...and the permanent sat memo survives the renumbering. *)
          check bool_t "sat memo survives compaction" true
            (Bdd.sat_fraction m f = syndrome);
          (* The window's accounting is still armed: fresh allocation
             after the collect still trips the original cap. *)
          for _ = 1 to 1_000 do
            ignore (build_xor_chain m 16);
            Bdd.clear_caches m;
            Bdd.collect m
          done;
          None)
    with Bdd.Budget_exceeded { nodes; budget } -> Some (nodes, budget)
  in
  match blown with
  | None -> Alcotest.fail "budget window disarmed by collect"
  | Some (nodes, budget) ->
    check int_t "original cap still enforced" 200 budget;
    check int_t "raised exactly at the cap" budget nodes

let test_collect_inside_deadline_window () =
  let m = Bdd.create 16 in
  let blown =
    try
      Bdd.with_deadline m ~deadline_ms:20.0 (fun () ->
          for _ = 1 to 1_000_000 do
            let f = build_xor_chain m 16 in
            (* Collecting mid-window must neither raise nor disarm the
               deadline for the allocations that follow it. *)
            Bdd.collect ~roots:[ [| f |] ] m;
            Bdd.clear_caches m
          done;
          false)
    with Bdd.Deadline_exceeded _ -> true
  in
  check bool_t "deadline still armed across collects" true blown

(* ------------------------------------------------------------------ *)
(* Engine: budget degradation and top-budget-retry recovery           *)

let some_fault c =
  Fault.Stuck (List.nth (Sa_fault.collapsed_faults c) 7)

(* Fresh allocations one fault's analysis needs on a pristine engine —
   deterministic, and exactly what a retry on a rebuilt manager pays. *)
let fresh_cost c fault =
  let engine = Engine.create c in
  let before = Bdd.allocated_nodes (Engine.manager engine) in
  let _ = Engine.analyze engine fault in
  Bdd.allocated_nodes (Engine.manager engine) - before

let test_budget_degrades_not_crashes () =
  let c = Bench_suite.find "c95" in
  let fault = some_fault c in
  let used = fresh_cost c fault in
  check bool_t "fault is expensive enough to test budgets" true (used >= 8);
  let budget = (used + 3) / 4 in
  let engine = Engine.create c in
  match
    sweep
      {
        Sweep_config.default with
        fault_budget = Some budget;
        max_retries = 0;
        bounds = false;
      }
      engine [ fault ]
  with
  | [ Engine.Budget_exceeded { nodes; budget = b; fault = f } ] ->
    check int_t "reported budget" budget b;
    check int_t "blown exactly at the cap" budget nodes;
    check bool_t "carries the fault" true (Fault.equal f fault)
  | [ Engine.Exact _ ] -> Alcotest.fail "tiny budget did not degrade"
  | [ Engine.Crashed { message; _ } ] ->
    Alcotest.fail ("budget blow-up surfaced as a crash: " ^ message)
  | _ -> Alcotest.fail "expected exactly one outcome"

let test_retry_recovers_to_exact () =
  let c = Bench_suite.find "c95" in
  let fault = some_fault c in
  let used = fresh_cost c fault in
  let budget = (used + 3) / 4 in
  (* budget < used, but 4 * budget >= used: the first attempt blows, and
     the one retry, at 2^2 = 4x, must recover. *)
  let clean = Engine.analyze (Engine.create c) fault in
  let engine = Engine.create c in
  match
    Engine.sweep
      ~config:
        {
          Sweep_config.default with
          fault_budget = Some budget;
          max_retries = 2;
        }
      engine [ fault ]
  with
  | [ Engine.Exact r ], stats ->
    check bool_t "recovered result is bit-identical to a clean run" true
      (r = clean);
    check int_t "one retry, straight at the top budget" 1
      stats.Engine.retry_attempts
  | [ o ], _ ->
    Alcotest.fail ("top-budget retry failed to recover: "
                   ^ Engine.outcome_to_string c o)
  | _ -> Alcotest.fail "expected exactly one outcome"

(* The ladder's budgets, with nothing after the retry: no rescue, no
   bounds, and every first attempt on the canonical arena. *)
let ladder_config ~budget ~max_retries domains =
  {
    Sweep_config.default with
    fault_budget = Some budget;
    max_retries;
    reorder = false;
    bounds = false;
    domains;
  }

(* A fault whose first attempt and retry both blow the budget, then a
   cheap fault: the retry runs on a separate pristine build, and the
   sweep's counters must still see the work on the worker's own arena
   that follows it. *)
let test_ladder_work_counted () =
  let c = Bench_suite.find "c95" in
  let nth i = Fault.Stuck (List.nth (Sa_fault.collapsed_faults c) i) in
  let f_retries = nth 5 and f_ok = nth 9 in
  let budget = fresh_cost c f_ok in
  check bool_t "the first fault outgrows its top budget" true
    (fresh_cost c f_retries > 4 * budget);
  List.iter
    (fun domains ->
      let config = ladder_config ~budget ~max_retries:2 domains in
      let outcomes, stats =
        Engine.sweep ~config (Engine.create c) [ f_retries; f_ok ]
      in
      (match outcomes with
      | [ Engine.Budget_exceeded _; Engine.Exact _ ] -> ()
      | _ -> Alcotest.fail "expected a blown retry, then an exact fault");
      check int_t "one retry" 1 stats.Engine.retry_attempts;
      let alone =
        (snd (Engine.sweep ~config (Engine.create c) [ f_ok ]))
          .Engine.apply_steps
      in
      check bool_t
        (Printf.sprintf "apply steps %d cover the cheap fault's %d alone"
           stats.Engine.apply_steps alone)
        true
        (stats.Engine.apply_steps >= alone))
    [ 1; 2 ]

(* Every retry of a fault must start from the build's node set, however
   many retries ran on that build before: a fault whose retry blows its
   cap, listed twice, answers the same both times.  The cap is chosen
   so the second retry would fit if the first one's nodes were still
   there. *)
let test_failed_retry_repeats () =
  let c = Bench_suite.find "c95" in
  let fault = some_fault c in
  let used = fresh_cost c fault in
  let budget = (used + 3) / 4 in
  check bool_t "the retry cap sits between half the cost and the cost" true
    (2 * budget < used && used <= 4 * budget);
  List.iter
    (fun domains ->
      match
        sweep
          (ladder_config ~budget ~max_retries:1 domains)
          (Engine.create c) [ fault; fault ]
      with
      | [ (Engine.Budget_exceeded _ as a); b ] ->
        check bool_t "second listing answers as the first" true (a = b)
      | _ -> Alcotest.fail "expected the retry to blow its cap")
    [ 1; 2 ]

(* The reference ladder: the first attempt on the canonical arena
   ([first] collected down to its good functions), then one retry at
   the top budget on a fresh engine of its own. *)
let reference_ladder c ~first ~budget ~max_retries fault =
  Engine.collect first;
  match Engine.analyze_protected ~fault_budget:budget first fault with
  | (Engine.Budget_exceeded _ | Engine.Deadline_exceeded _ | Engine.Crashed _)
    when max_retries > 0 ->
    Engine.analyze_protected
      ~fault_budget:(budget lsl max_retries)
      (Engine.create ~heuristic:Ordering.Natural c)
      fault
  | o -> o

(* A sweep's retries share one pristine build per worker, and must
   answer what a fresh engine per retry does. *)
let prop_ladder_matches_fresh_engines =
  let test (seed, domains) =
    let rng = Prng.create ~seed:(seed + 191) in
    let c =
      Generate.random ~seed:(seed + 191)
        ~inputs:(4 + Prng.int rng 3)
        ~gates:(20 + Prng.int rng 20)
        ~outputs:(1 + Prng.int rng 3)
    in
    let budget = 1 + Prng.int rng 12 and max_retries = 1 + Prng.int rng 2 in
    let faults =
      List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
    in
    sweep
      (ladder_config ~budget ~max_retries domains)
      (Engine.create ~heuristic:Ordering.Natural c)
      faults
    = List.map
        (reference_ladder c
           ~first:(Engine.create ~heuristic:Ordering.Natural c)
           ~budget ~max_retries)
        faults
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20
       ~name:"ladder on shared pristine builds answers as fresh engines"
       QCheck.(pair small_nat (int_range 1 2))
       test)

(* ------------------------------------------------------------------ *)
(* Engine: bounded degradation soundness                               *)

(* Every collapsed c95 fault under a budget too small for exact
   analysis: each Bounded outcome's interval must contain the true
   detectability computed by an uncapped run, and must respect the
   syndrome upper bound. *)
let test_bounded_encloses_exact () =
  let c = Bench_suite.find "c95" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  let exact = sweep Sweep_config.default (Engine.create c) faults in
  let capped =
    sweep
      { Sweep_config.default with fault_budget = Some 60; max_retries = 0 }
      (Engine.create c)
      faults
  in
  let bounded = ref 0 in
  List.iter2
    (fun e o ->
      match (e, o) with
      | Engine.Exact r, Engine.Bounded { syndrome_bound; samples; _ } ->
        incr bounded;
        check bool_t "syndrome bound itself is sound" true
          (r.Engine.detectability <= syndrome_bound +. 1e-12);
        check bool_t "samples reported" true (samples > 0);
        (match Engine.outcome_bounds o with
        | Some (lower, upper) ->
          check bool_t
            (Printf.sprintf "lower <= exact (%s)"
               (Fault.to_string c r.Engine.fault))
            true
            (lower <= r.Engine.detectability);
          check bool_t
            (Printf.sprintf "exact <= upper (%s)"
               (Fault.to_string c r.Engine.fault))
            true
            (r.Engine.detectability <= upper)
        | None -> Alcotest.fail "Bounded outcome without bounds")
      | Engine.Exact _, (Engine.Exact _ | Engine.Crashed _) -> ()
      | Engine.Exact _, _ ->
        Alcotest.fail "raw degradation escaped the bounds fallback"
      | _ -> Alcotest.fail "uncapped sweep failed to be exact")
    exact capped;
  check bool_t "the tiny budget actually produced Bounded outcomes" true
    (!bounded > 10)

(* Undetectable faults are the soundness edge: their exact
   detectability is 0.0, so the pinned Wilson lower endpoint must be
   exactly 0.0 — any positive rounding would break [lower <= exact]. *)
let test_bounded_pins_undetectable () =
  check bool_t "0 hits pins lower to exactly 0" true
    (fst (Engine.wilson_interval ~z:5.0 0 4096) = 0.0);
  check bool_t "all hits pin upper to exactly 1" true
    (snd (Engine.wilson_interval ~z:5.0 4096 4096) = 1.0);
  let lo, up = Engine.wilson_interval ~z:5.0 2048 4096 in
  check bool_t "two-sided interval is proper" true
    (0.0 < lo && lo < 0.5 && 0.5 < up && up < 1.0)

(* ------------------------------------------------------------------ *)
(* Engine: crash isolation                                             *)

(* A fault naming a net outside the circuit: analysis crashes before
   touching shared scratch state. *)
let crash_fault c =
  Fault.Stuck
    { Sa_fault.line = Sa_fault.Stem (Circuit.num_gates c + 7); value = false }

let insert k x xs =
  List.filteri (fun i _ -> i < k) xs @ (x :: List.filteri (fun i _ -> i >= k) xs)

let crash_isolation_prop c clean faults (pos, domains) =
  let pos = pos mod (List.length faults + 1) in
  let hostile = insert pos (crash_fault c) faults in
  let outcomes =
    sweep { Sweep_config.default with domains } (Engine.create c) hostile
  in
  List.length outcomes = List.length hostile
  && List.for_all2
       (fun i outcome ->
         if i = pos then
           match outcome with Engine.Crashed _ -> true | _ -> false
         else outcome = List.nth clean (if i < pos then i else i - 1))
       (List.init (List.length hostile) Fun.id)
       outcomes

let prop_injected_crash_leaves_others_bit_identical =
  let c = Bench_suite.find "c17" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  let clean =
    sweep { Sweep_config.default with domains = 1 } (Engine.create c) faults
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25
       ~name:"injected crash: all other outcomes bit-identical (any domains)"
       QCheck.(pair (int_bound 1000) (int_range 1 4))
       (crash_isolation_prop c clean faults))

(* The acceptance scenario: one crashing fault and at least one
   budget-blowing fault in the same sweep, at several domain counts. *)
let test_hostile_sweep_completes () =
  let c = Bench_suite.find "c95" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  (* Arena sharing makes a fault's in-sweep cost far below its
     fresh-engine cost, so measure the per-fault allocation deltas of an
     actual sequential sweep: a budget just under the largest delta
     guarantees that fault blows it (everything before it evolves the
     arena identically), and no retries keeps it degraded. *)
  let max_cost =
    let engine = Engine.create c in
    let m = Engine.manager engine in
    List.fold_left
      (fun acc f ->
        let before = Bdd.allocated_nodes m in
        let _ = Engine.analyze engine f in
        max acc (Bdd.allocated_nodes m - before))
      0 faults
  in
  check bool_t "sweep has a meaningfully expensive fault" true (max_cost >= 4);
  let budget = max_cost - 1 in
  let pos = List.length faults / 2 in
  let hostile = insert pos (crash_fault c) faults in
  (* ~reorder:false: this scenario asserts the blown fault *stays*
     degraded — with the rescue rung on, the sifted-order retry would
     (correctly) recover it to Exact and there would be nothing left to
     observe.  The rescue rung has its own suite in test_reorder.ml. *)
  let sweep domains =
    sweep
      {
        Sweep_config.default with
        fault_budget = Some budget;
        max_retries = 0;
        reorder = false;
        bounds = false;
        domains;
      }
      (Engine.create c) hostile
  in
  let baseline = sweep 1 in
  check int_t "an outcome for every fault" (List.length hostile)
    (List.length baseline);
  check bool_t "the injected fault crashed, contained" true
    (match List.nth baseline pos with
    | Engine.Crashed _ -> true
    | _ -> false);
  check bool_t "at least one fault degraded on budget" true
    (List.exists
       (function Engine.Budget_exceeded _ -> true | _ -> false)
       baseline);
  check bool_t "and most completed exactly" true
    (List.length (Engine.exact_results baseline) > List.length hostile / 2);
  List.iter
    (fun domains ->
      let outcomes = sweep domains in
      check int_t "same length at any domain count" (List.length baseline)
        (List.length outcomes);
      (* Exact statistics are canonical: wherever both runs completed a
         fault, the records agree bit for bit.  (Whether a borderline
         fault degrades may depend on arena history, hence batching.) *)
      List.iter2
        (fun a b ->
          match (a, b) with
          | Engine.Exact ra, Engine.Exact rb ->
            check bool_t "Exact outcomes bit-identical across batchings"
              true (ra = rb)
          | _ -> ())
        baseline outcomes)
    [ 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Parallel supervision                                                *)

(* Both queue shapes: a worker that runs dry returns, or patrols under a
   deadline generous enough never to duplicate a batch. *)
let deadlines = [ None; Some (fun _ -> 30.0) ]

let test_batch_error_containment () =
  List.iter
    (fun batch_deadline ->
      let batches =
        Array.init 10 (fun b -> Array.init 4 (fun k -> (4 * b) + k))
      in
      let results =
        Parallel.steal_batches ~domains:4 ?batch_deadline
          ~init:(fun () -> ())
          ~process:(fun () batch ->
            if Array.mem 13 batch then failwith "boom"
            else Array.map succ batch)
          batches
      in
      check int_t "one result per batch" (Array.length batches)
        (Array.length results);
      Array.iteri
        (fun b res ->
          let batch = batches.(b) in
          match res with
          | Ok out ->
            check bool_t "surviving batch kept its results" true
              (out = Array.map succ batch);
            check bool_t "only the poisoned batch failed" false
              (Array.mem 13 batch)
          | Error exn ->
            check bool_t "failed batch is the poisoned one" true
              (Array.mem 13 batch);
            check bool_t "original exception preserved" true
              (exn = Failure "boom"))
        results)
    deadlines

let test_caller_init_reraised_after_joins () =
  (* The calling domain's [init] fails; the spawned workers drain the
     whole queue, and the exception still propagates — after every
     worker joined, with every batch processed. *)
  List.iter
    (fun batch_deadline ->
      let caller = Domain.self () in
      let processed = Atomic.make 0 in
      let raised =
        try
          ignore
            (Parallel.steal_batches ~domains:4 ?batch_deadline
               ~init:(fun () ->
                 if Domain.self () = caller then failwith "head down")
               ~process:(fun () _ ->
                 Unix.sleepf 0.002;
                 Atomic.incr processed)
               (Array.init 37 Fun.id));
          false
        with Failure m -> m = "head down"
      in
      check bool_t "calling domain's init failure re-raised" true raised;
      check int_t "re-raised only after the workers drained the queue" 37
        (Atomic.get processed))
    deadlines

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "robustness"
    [
      ( "bdd budget",
        [
          Alcotest.test_case "tiny budget raises mid-apply, arena intact"
            `Quick test_budget_raises_mid_apply;
          Alcotest.test_case "ample budget changes nothing" `Quick
            test_budget_success_and_restore;
          Alcotest.test_case "windows nest and charge outward" `Quick
            test_budget_windows_nest;
        ] );
      ( "bdd deadline",
        [
          Alcotest.test_case "deadline raises mid-apply, window restored"
            `Quick test_deadline_raises_mid_apply;
          Alcotest.test_case "windows nest, inner only tightens" `Quick
            test_deadline_windows_nest;
          Alcotest.test_case "non-positive deadline rejected" `Quick
            test_deadline_rejects_nonpositive;
        ] );
      ( "collect in window",
        [
          Alcotest.test_case
            "collect charges no budget, memos survive, cap stays armed"
            `Quick test_collect_inside_budget_window;
          Alcotest.test_case "deadline stays armed across collects" `Quick
            test_collect_inside_deadline_window;
        ] );
      ( "engine degradation",
        [
          Alcotest.test_case "tiny fault budget degrades, not crashes"
            `Quick test_budget_degrades_not_crashes;
          Alcotest.test_case "one retry recovers to Exact" `Quick
            test_retry_recovers_to_exact;
          Alcotest.test_case "Bounded intervals enclose the exact answer"
            `Quick test_bounded_encloses_exact;
          Alcotest.test_case "Wilson endpoints pinned for one-sided samples"
            `Quick test_bounded_pins_undetectable;
          Alcotest.test_case "ladder work counted in sweep stats" `Quick
            test_ladder_work_counted;
          Alcotest.test_case "failed retry answers alike when repeated"
            `Quick test_failed_retry_repeats;
          prop_ladder_matches_fresh_engines;
        ] );
      ( "crash isolation",
        [
          prop_injected_crash_leaves_others_bit_identical;
          Alcotest.test_case
            "hostile sweep completes with structured outcomes" `Slow
            test_hostile_sweep_completes;
        ] );
      ( "parallel supervision",
        [
          Alcotest.test_case "crashed shard contained, survivors kept"
            `Quick test_batch_error_containment;
          Alcotest.test_case "worker exception re-raised after joins" `Quick
            test_caller_init_reraised_after_joins;
        ] );
    ]
