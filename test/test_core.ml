(* Tests for Difference Propagation: the Table-1 rules, the engine's
   exact test sets (validated against exhaustive simulation), the fault
   statistics, cone decomposition, and bridge classification. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let float_t = Alcotest.float 1e-12

let c17 () = Bench_suite.find "c17"

let stem_fault c name value =
  let s = Option.get (Circuit.index_of_name c name) in
  Fault.Stuck { Sa_fault.line = Sa_fault.Stem s; value }

(* ------------------------------------------------------------------ *)
(* Table 1 rules (qcheck)                                              *)

let nvars = 5

let random_bdd rng m =
  let literal () =
    let v = Prng.int rng nvars in
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
  build 2

let rule_kinds =
  [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor ]

let prop_rules_match_direct =
  let test seed =
    let m = Bdd.create nvars in
    let rng = Prng.create ~seed in
    let arity = 2 + Prng.int rng 3 in
    let good = Array.init arity (fun _ -> random_bdd rng m) in
    let delta =
      Array.init arity (fun _ ->
          if Prng.int rng 3 = 0 then Bdd.zero m else random_bdd rng m)
    in
    List.for_all
      (fun kind ->
        Bdd.equal
          (Rules.delta m kind ~good ~delta)
          (Rules.delta_direct m kind ~good ~delta))
      rule_kinds
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"Table 1 rules = direct evaluation"
       QCheck.small_nat test)

let prop_inversion_insensitive =
  let test seed =
    let m = Bdd.create nvars in
    let rng = Prng.create ~seed in
    let good = Array.init 2 (fun _ -> random_bdd rng m) in
    let delta = Array.init 2 (fun _ -> random_bdd rng m) in
    let same base inverted =
      Bdd.equal
        (Rules.delta m base ~good ~delta)
        (Rules.delta m inverted ~good ~delta)
    in
    same Gate.And Gate.Nand && same Gate.Or Gate.Nor
    && same Gate.Xor Gate.Xnor
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"output inversion never changes the difference" QCheck.small_nat
       test)

let prop_zero_delta_propagates_zero =
  let test seed =
    let m = Bdd.create nvars in
    let rng = Prng.create ~seed in
    let arity = 2 + Prng.int rng 3 in
    let good = Array.init arity (fun _ -> random_bdd rng m) in
    let delta = Array.make arity (Bdd.zero m) in
    List.for_all
      (fun kind -> Bdd.is_zero m (Rules.delta m kind ~good ~delta))
      rule_kinds
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"all-zero input differences give zero"
       QCheck.small_nat test)

let test_and_rule_closed_form () =
  (* dC = fA.dB xor fB.dA xor dA.dB on a concrete example. *)
  let m = Bdd.create 4 in
  let fa = Bdd.var m 0 and fb = Bdd.var m 1 in
  let da = Bdd.var m 2 and db = Bdd.var m 3 in
  let expected =
    Bdd.bxor m
      (Bdd.bxor m (Bdd.band m fa db) (Bdd.band m fb da))
      (Bdd.band m da db)
  in
  check bool_t "closed form" true
    (Bdd.equal expected
       (Rules.delta m Gate.And ~good:[| fa; fb |] ~delta:[| da; db |]))

let test_table_text_present () =
  check int_t "four rule rows" 4 (List.length Rules.table_text)

(* ------------------------------------------------------------------ *)
(* Engine vs exhaustive simulation (the central soundness check)       *)

let engine_matches_simulation c faults =
  let engine = Engine.create c in
  List.iter
    (fun fault ->
      let dp = (Engine.analyze engine fault).Engine.detectability in
      let sim = Fault_sim.exhaustive_detectability c fault in
      check float_t (Fault.to_string c fault) sim dp)
    faults

let test_engine_c17_all_line_faults () =
  let c = c17 () in
  engine_matches_simulation c
    (List.map (fun f -> Fault.Stuck f) (Sa_fault.all_line_faults c))

let test_engine_c17_all_bridges () =
  let c = c17 () in
  engine_matches_simulation c
    (List.map (fun b -> Fault.Bridged b) (Bridge.enumerate c))

let test_engine_fulladder_everything () =
  let c = Bench_suite.find "fulladder" in
  engine_matches_simulation c
    (List.map (fun f -> Fault.Stuck f) (Sa_fault.all_line_faults c)
    @ List.map (fun b -> Fault.Bridged b) (Bridge.enumerate c))

let test_engine_random_circuits () =
  (* Random structural variety, including heavy fanout and XOR mixes. *)
  List.iter
    (fun seed ->
      let c = Generate.random ~seed ~inputs:7 ~gates:30 ~outputs:3 in
      let faults =
        List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
      in
      engine_matches_simulation c faults)
    [ 101; 102; 103; 104; 105 ]

let test_engine_random_bridges () =
  List.iter
    (fun seed ->
      let c = Generate.random ~seed ~inputs:7 ~gates:25 ~outputs:3 in
      let bridges = Bridge.enumerate c in
      let subset = List.filteri (fun i _ -> i mod 7 = 0) bridges in
      engine_matches_simulation c
        (List.map (fun b -> Fault.Bridged b) subset))
    [ 201; 202 ]

let test_engine_c95_collapsed () =
  let c = Bench_suite.find "c95" in
  engine_matches_simulation c
    (List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c))

let test_engine_alu_sample () =
  let c = Bench_suite.find "alu74181" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
    |> List.filteri (fun i _ -> i mod 5 = 0)
  in
  engine_matches_simulation c faults

(* The central soundness claim as a qcheck property: on a randomly
   generated circuit, a random fault of either model has exactly the
   exhaustive-simulation detectability under DP. *)
let prop_dp_matches_simulation =
  let test seed =
    let rng = Prng.create ~seed:(seed + 1000) in
    let c =
      Generate.random ~seed:(seed + 1) ~inputs:(5 + Prng.int rng 4)
        ~gates:(10 + Prng.int rng 25)
        ~outputs:(1 + Prng.int rng 4)
    in
    let engine = Engine.create c in
    let n = Circuit.num_gates c in
    let fault =
      match Prng.int rng 3 with
      | 0 ->
        Fault.Stuck
          { Sa_fault.line = Sa_fault.Stem (Prng.int rng n);
            value = Prng.bool rng }
      | 1 ->
        let anc = Bridge.ancestors c in
        let rec pick tries =
          if tries = 0 then None
          else
            let a = Prng.int rng n and b = Prng.int rng n in
            if a <> b && not (Bridge.is_feedback anc a b) then
              Some (Fault.Bridged (Bridge.make a b
                      (if Prng.bool rng then Bridge.Wired_and
                       else Bridge.Wired_or)))
            else pick (tries - 1)
        in
        Option.value (pick 20)
          ~default:(Fault.Stuck
                      { Sa_fault.line = Sa_fault.Stem 0; value = true })
      | _ ->
        let a = Prng.int rng n in
        let b = (a + 1 + Prng.int rng (n - 1)) mod n in
        Fault.multi [ (a, Prng.bool rng); (b, Prng.bool rng) ]
    in
    let dp = (Engine.analyze engine fault).Engine.detectability in
    let sim = Fault_sim.exhaustive_detectability c fault in
    Float.abs (dp -. sim) < 1e-12
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:80
       ~name:"DP = exhaustive simulation on random circuits and faults"
       QCheck.small_nat test)

(* ------------------------------------------------------------------ *)
(* Test sets and vectors                                               *)

let test_vectors_actually_detect () =
  let c = Bench_suite.find "c95" in
  let engine = Engine.create c in
  List.iter
    (fun f ->
      let fault = Fault.Stuck f in
      match Engine.test_vector engine fault with
      | None ->
        check float_t "undetectable means zero detectability" 0.0
          (Engine.analyze engine fault).Engine.detectability
      | Some v ->
        check bool_t
          ("vector detects " ^ Fault.to_string c fault)
          true
          (Fault_sim.detects c fault v))
    (Sa_fault.collapsed_faults c)

let test_cubes_cover_test_count () =
  let c = c17 () in
  let engine = Engine.create c in
  let fault = stem_fault c "G1" false in
  let cubes = Engine.test_cubes engine fault in
  (* Expand cubes to minterms over the 5 inputs and compare counts. *)
  let count =
    List.fold_left
      (fun acc cube -> acc + (1 lsl (5 - List.length cube)))
      0 cubes
  in
  check int_t "cube expansion matches count"
    (int_of_float (Engine.analyze engine fault).Engine.test_count)
    count

let test_po_differences_match_outputs () =
  let c = c17 () in
  let engine = Engine.create c in
  let fault = stem_fault c "G7" false in
  let diffs = Engine.po_differences engine fault in
  check int_t "one diff per PO" (Circuit.num_outputs c) (Array.length diffs);
  (* G7 reaches only G23 (the second output). *)
  let m = Engine.manager engine in
  check bool_t "G22 difference empty" true (Bdd.is_zero m diffs.(0));
  check bool_t "G23 difference non-empty" false (Bdd.is_zero m diffs.(1))

(* ------------------------------------------------------------------ *)
(* Result statistics                                                   *)

let test_syndrome_bound_holds () =
  (* detectability <= upper bound, for stuck-at and bridging faults. *)
  let c = Bench_suite.find "c95" in
  let engine = Engine.create c in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
    @ List.map (fun b -> Fault.Bridged b)
        (List.filteri (fun i _ -> i mod 11 = 0) (Bridge.enumerate c))
  in
  List.iter
    (fun fault ->
      let r = Engine.analyze engine fault in
      check bool_t
        ("bound " ^ Fault.to_string c fault)
        true
        (r.Engine.detectability <= r.Engine.upper_bound +. 1e-12))
    faults

let test_adherence_definition () =
  let c = c17 () in
  let engine = Engine.create c in
  List.iter
    (fun f ->
      let r = Engine.analyze engine (Fault.Stuck f) in
      match r.Engine.adherence with
      | None -> check float_t "no bound, no tests" 0.0 r.Engine.upper_bound
      | Some a ->
        check bool_t "adherence in [0,1]" true (a >= 0.0 && a <= 1.0 +. 1e-12);
        check float_t "a = d / U" (r.Engine.detectability /. r.Engine.upper_bound) a)
    (Sa_fault.collapsed_faults c)

let test_po_fault_adherence_is_one () =
  (* A stuck-at on a primary-output stem is observed directly, so every
     exciting minterm is a test. *)
  let c = c17 () in
  let engine = Engine.create c in
  let r = Engine.analyze engine (stem_fault c "G22" false) in
  check (Alcotest.option float_t) "adherence 1" (Some 1.0) r.Engine.adherence

let test_pos_fed_and_observed () =
  let c = c17 () in
  let engine = Engine.create c in
  let r = Engine.analyze engine (stem_fault c "G7" false) in
  check int_t "G7 feeds one PO" 1 r.Engine.pos_fed;
  check int_t "observed at one PO" 1 r.Engine.pos_observed;
  let r = Engine.analyze engine (stem_fault c "G3" false) in
  check int_t "G3 feeds both POs" 2 r.Engine.pos_fed

let test_undetectable_redundant_fault () =
  (* y = (a and b) or (a and not b) or (not a): a tautology; any stuck-at
     on the output is only detectable for one polarity. *)
  let c =
    Circuit.create ~title:"red" ~inputs:[ "a"; "b" ] ~outputs:[ "y" ]
      [
        ("t1", Gate.And, [ "a"; "b" ]);
        ("nb", Gate.Not, [ "b" ]);
        ("t2", Gate.And, [ "a"; "nb" ]);
        ("na", Gate.Not, [ "a" ]);
        ("y", Gate.Or, [ "t1"; "t2"; "na" ]);
      ]
  in
  let engine = Engine.create c in
  let y = Option.get (Circuit.index_of_name c "y") in
  let sa1 = Fault.Stuck { Sa_fault.line = Sa_fault.Stem y; value = true } in
  let r = Engine.analyze engine sa1 in
  check bool_t "s-a-1 on constant-one net undetectable" false
    r.Engine.detectable;
  check float_t "upper bound is complement syndrome" 0.0 r.Engine.upper_bound

let test_sweep_with_tiny_budget () =
  (* A never-binding budget closes the epoch before every fault (after
     a collection on the first); that must not change any result. *)
  let c = Bench_suite.find "c95" in
  let engine = Engine.create c in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
    |> List.filteri (fun i _ -> i < 20)
  in
  let normal = Engine.analyze_exact engine faults in
  let engine2 = Engine.create c in
  let rebuilt =
    Engine.analyze_exact
      ~config:{ Sweep_config.default with fault_budget = Some 1_000_000 }
      engine2 faults
  in
  List.iter2
    (fun a b ->
      check float_t "same detectability" a.Engine.detectability
        b.Engine.detectability)
    normal rebuilt

let test_heuristic_invariance () =
  (* Detectabilities are order-independent. *)
  let c = Bench_suite.find "c95" in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
    |> List.filteri (fun i _ -> i < 15)
  in
  let base =
    Engine.analyze_exact (Engine.create ~heuristic:Ordering.Natural c) faults
  in
  List.iter
    (fun h ->
      let results = Engine.analyze_exact (Engine.create ~heuristic:h c) faults in
      List.iter2
        (fun a b ->
          check float_t (Ordering.name h) a.Engine.detectability
            b.Engine.detectability)
        base results)
    [ Ordering.Dfs_fanin; Ordering.Reverse; Ordering.Shuffled 3 ]

(* ------------------------------------------------------------------ *)
(* Cone decomposition                                                  *)

let test_decompose_matches_engine () =
  let c = Bench_suite.find "c95" in
  let engine = Engine.create c in
  let decomposed = Decompose.create c in
  check int_t "one cone per PO" (Circuit.num_outputs c) (Decompose.cones decomposed);
  check bool_t "cones smaller than circuit" true
    (Decompose.max_cone_nets decomposed <= Circuit.num_gates c);
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
    @ List.map (fun b -> Fault.Bridged b)
        (List.filteri (fun i _ -> i mod 13 = 0) (Bridge.enumerate c))
  in
  List.iter
    (fun fault ->
      check float_t
        ("decompose " ^ Fault.to_string c fault)
        (Engine.analyze engine fault).Engine.detectability
        (Decompose.detectability decomposed fault))
    faults

let test_decompose_random_circuit () =
  let c = Generate.random ~seed:77 ~inputs:8 ~gates:40 ~outputs:4 in
  let engine = Engine.create c in
  let decomposed = Decompose.create c in
  List.iter
    (fun f ->
      let fault = Fault.Stuck f in
      check float_t
        (Fault.to_string c fault)
        (Engine.analyze engine fault).Engine.detectability
        (Decompose.detectability decomposed fault))
    (Sa_fault.collapsed_faults c)

(* ------------------------------------------------------------------ *)
(* Bridge classification                                               *)

let test_bridge_class_constant_wired () =
  (* Bridging a net with its complement: wired-AND is constant 0, i.e.
     double stuck-at-0 behaviour. *)
  let c =
    Circuit.create ~title:"cls" ~inputs:[ "a"; "b" ] ~outputs:[ "y"; "z" ]
      [
        ("na", Gate.Not, [ "a" ]);
        ("y", Gate.And, [ "a"; "b" ]);
        ("z", Gate.Or, [ "na"; "b" ]);
      ]
  in
  let engine = Engine.create c in
  let a = Option.get (Circuit.index_of_name c "a") in
  let na = Option.get (Circuit.index_of_name c "na") in
  check bool_t "a AND ~a is stuck-like" true
    (Bridge_class.is_stuck_like engine (Bridge.make a na Bridge.Wired_and));
  check bool_t "a OR ~a is stuck-like" true
    (Bridge_class.is_stuck_like engine (Bridge.make a na Bridge.Wired_or));
  let b = Option.get (Circuit.index_of_name c "b") in
  check bool_t "a AND b is not" false
    (Bridge_class.is_stuck_like engine (Bridge.make a b Bridge.Wired_and))

let test_bridge_class_summary () =
  let c = c17 () in
  let engine = Engine.create c in
  let bridges = Bridge.enumerate c in
  let summaries = Bridge_class.classify engine bridges in
  check int_t "two kinds" 2 (List.length summaries);
  List.iter
    (fun s ->
      check int_t "totals add up" s.Bridge_class.total
        (List.length
           (List.filter (fun b -> b.Bridge.kind = s.Bridge_class.kind) bridges));
      check bool_t "proportion in range" true
        (s.Bridge_class.proportion >= 0.0 && s.Bridge_class.proportion <= 1.0))
    summaries

let () =
  Alcotest.run "core"
    [
      ( "rules",
        [
          prop_rules_match_direct;
          prop_inversion_insensitive;
          prop_zero_delta_propagates_zero;
          Alcotest.test_case "AND closed form" `Quick test_and_rule_closed_form;
          Alcotest.test_case "table text" `Quick test_table_text_present;
        ] );
      ( "exactness",
        [
          Alcotest.test_case "c17 all line faults" `Quick
            test_engine_c17_all_line_faults;
          Alcotest.test_case "c17 all bridges" `Quick test_engine_c17_all_bridges;
          Alcotest.test_case "fulladder everything" `Quick
            test_engine_fulladder_everything;
          Alcotest.test_case "random circuits" `Slow test_engine_random_circuits;
          Alcotest.test_case "random bridges" `Slow test_engine_random_bridges;
          Alcotest.test_case "c95 collapsed" `Slow test_engine_c95_collapsed;
          Alcotest.test_case "alu74181 sample" `Slow test_engine_alu_sample;
          prop_dp_matches_simulation;
        ] );
      ( "test-sets",
        [
          Alcotest.test_case "vectors detect" `Quick test_vectors_actually_detect;
          Alcotest.test_case "cube expansion" `Quick test_cubes_cover_test_count;
          Alcotest.test_case "per-PO differences" `Quick
            test_po_differences_match_outputs;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "syndrome bound" `Quick test_syndrome_bound_holds;
          Alcotest.test_case "adherence definition" `Quick
            test_adherence_definition;
          Alcotest.test_case "PO fault adherence" `Quick
            test_po_fault_adherence_is_one;
          Alcotest.test_case "POs fed and observed" `Quick
            test_pos_fed_and_observed;
          Alcotest.test_case "redundant fault" `Quick
            test_undetectable_redundant_fault;
          Alcotest.test_case "rebuild invariance" `Quick
            test_sweep_with_tiny_budget;
          Alcotest.test_case "ordering invariance" `Quick
            test_heuristic_invariance;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "matches engine on c95" `Quick
            test_decompose_matches_engine;
          Alcotest.test_case "matches engine on random" `Quick
            test_decompose_random_circuit;
        ] );
      ( "bridge-class",
        [
          Alcotest.test_case "constant wired function" `Quick
            test_bridge_class_constant_wired;
          Alcotest.test_case "summary" `Quick test_bridge_class_summary;
        ] );
    ]
