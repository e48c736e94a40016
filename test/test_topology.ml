(* Topology oracle: FFR decomposition, cut-profile estimation, circuit
   classification, order synthesis, and the engine's one-rung retry
   ladder (its outcomes match a doubling ladder's). *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let bench text = Bench_format.parse ~title:"<test>" text

(* ------------------------------------------------------------------ *)
(* FFR decomposition and cut profiles                                  *)

let test_ffr_partition () =
  List.iter
    (fun name ->
      let c = Bench_suite.find name in
      let f = Ffr.decompose c in
      check int_t
        (name ^ ": FFR sizes partition the nets")
        (Circuit.num_gates c)
        (List.fold_left (fun acc h -> acc + f.Ffr.size.(h)) 0 f.Ffr.heads);
      List.iter
        (fun h -> check int_t (name ^ ": heads head themselves") h f.Ffr.head.(h))
        f.Ffr.heads;
      Array.iteri
        (fun g h ->
          check int_t
            (name ^ ": membership is idempotent")
            h f.Ffr.head.(h)
          |> ignore;
          ignore g)
        f.Ffr.head)
    [ "c17"; "c95"; "c432" ]

let test_reconvergence_detection () =
  (* A pure chain has no reconvergent stem; sharing one net across two
     paths that meet again has exactly one. *)
  let chain = bench "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt = AND(a, b)\ny = NOT(t)\n" in
  check int_t "chain: no reconvergent stems" 0
    (List.length (Ffr.reconvergent_stems chain));
  let diamond =
    bench
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ns = OR(a, b)\nl = NOT(s)\nr = \
       BUF(s)\ny = AND(l, r)\n"
  in
  let stems = Ffr.reconvergent_stems diamond in
  check bool_t "diamond: the shared stem reconverges" true
    (List.exists
       (fun g -> (Circuit.gate diamond g).Circuit.name = "s")
       stems)

let test_cut_profile () =
  let c = Bench_suite.find "c17" in
  let order = Ordering.order Ordering.Natural c in
  check int_t "c17 natural cutwidth" 5 (Ffr.cutwidth c ~order);
  (* Input spans are single levels; gate spans cover their fanins. *)
  let spans = Ffr.support_spans c ~order in
  for g = 0 to Circuit.num_gates c - 1 do
    if Circuit.is_input c g then begin
      let lo, hi = spans.(g) in
      check int_t "input span is a point" lo hi
    end
  done;
  (* A cone's cutwidth never exceeds the whole circuit's. *)
  Array.iter
    (fun po ->
      check bool_t "cone cutwidth bounded by circuit cutwidth" true
        (Ffr.cone_cutwidth c ~order po <= Ffr.cutwidth c ~order))
    c.Circuit.outputs

(* ------------------------------------------------------------------ *)
(* Order synthesis                                                     *)

let is_permutation order inputs =
  Array.length order = inputs
  &&
  let seen = Array.make inputs false in
  Array.for_all
    (fun p ->
      p >= 0 && p < inputs
      && (not seen.(p))
      &&
      (seen.(p) <- true;
       true))
    order

let test_orders_are_permutations () =
  List.iter
    (fun name ->
      let c = Bench_suite.find name in
      List.iter
        (fun h ->
          check bool_t
            (Printf.sprintf "%s/%s is a permutation" name (Ordering.name h))
            true
            (is_permutation (Ordering.order h c) (Circuit.num_inputs c)))
        Ordering.all)
    [ "c17"; "c95"; "alu74181"; "c432" ]

let test_oracle_c95 () =
  (* The one bundled circuit where the oracle is confident: dfs-fanin
     roughly halves the estimated cutwidth, and really does build a
     smaller BDD. *)
  let c = Bench_suite.find "c95" in
  let order, winner, cut, confident = Ordering.oracle c in
  check bool_t "c95: oracle is confident" true confident;
  check bool_t "c95: winner is dfs-fanin" true (winner = Ordering.Dfs_fanin);
  check bool_t "c95: estimated cutwidth improved" true
    (cut < Ffr.cutwidth c ~order:(Ordering.order Ordering.Natural c));
  let nodes o = Symbolic.total_nodes (Symbolic.build ~order:o c) in
  check bool_t "c95: the confident order builds a smaller BDD" true
    (nodes order < nodes (Ordering.order Ordering.Natural c))

let test_oracle_c17_natural () =
  let _, winner, _, confident = Ordering.oracle (Bench_suite.find "c17") in
  check bool_t "c17: natural wins the tie" true (winner = Ordering.Natural);
  check bool_t "c17: not confident" false confident

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)

let test_classes () =
  let klass c = (Topology.analyze c).Topology.klass in
  check bool_t "parity tree is Tree (no reconvergence)" true
    (klass (Generate.parity_tree ~inputs:8) = Topology.Tree);
  check bool_t "c17 is an adder chain" true
    (klass (Bench_suite.find "c17") = Topology.Adder_chain);
  check bool_t "c432 is fanout-reconvergent" true
    (klass (Bench_suite.find "c432") = Topology.Fanout_reconvergent);
  (* XOR-dominated with reconvergence: a parity chain. *)
  let parity_reconv =
    bench
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(p)\nt = XOR(a, b)\nu = XOR(t, \
       c)\nv = XNOR(t, a)\np = XOR(u, v)\n"
  in
  check bool_t "XOR-dominated reconvergent is Parity_chain" true
    (klass parity_reconv = Topology.Parity_chain)

let test_cone_prediction_monotone () =
  (* Per-cone predictions are positive and the circuit peak is their
     max. *)
  let t = Topology.analyze (Bench_suite.find "c95") in
  Array.iter
    (fun k ->
      check bool_t "cone prediction positive" true
        (k.Topology.predicted_nodes > 0.0);
      check bool_t "hostility in [0,1]" true
        (k.Topology.hostility >= 0.0 && k.Topology.hostility <= 1.0))
    t.Topology.cones;
  check bool_t "peak is the max cone" true
    (Array.for_all
       (fun k -> k.Topology.predicted_nodes <= Topology.predicted_peak t)
       t.Topology.cones)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

(* Random fanout-free circuits: combine unused nets only, so every net
   feeds exactly one reader — the Tree class by construction. *)
let random_tree seed =
  let rng = Prng.create ~seed in
  let buf = Buffer.create 256 in
  let inputs = 3 + Prng.int rng 6 in
  for i = 0 to inputs - 1 do
    Buffer.add_string buf (Printf.sprintf "INPUT(i%d)\n" i)
  done;
  Buffer.add_string buf "OUTPUT(y)\n";
  let avail = ref (List.init inputs (Printf.sprintf "i%d")) in
  let kinds = [| "AND"; "OR"; "NAND"; "NOR"; "XOR"; "XNOR" |] in
  let g = ref 0 in
  while List.length !avail > 1 do
    let pick () =
      let l = !avail in
      let k = Prng.int rng (List.length l) in
      let x = List.nth l k in
      avail := List.filteri (fun i _ -> i <> k) l;
      x
    in
    let a = pick () and b = pick () in
    let name = if List.length !avail = 0 then "y" else Printf.sprintf "g%d" !g in
    incr g;
    Buffer.add_string buf
      (Printf.sprintf "%s = %s(%s, %s)\n" name
         kinds.(Prng.int rng (Array.length kinds))
         a b);
    avail := name :: !avail
  done;
  bench (Buffer.contents buf)

let prop_polynomial_class_linear_build =
  let test seed =
    let c =
      if seed mod 2 = 0 then Generate.parity_tree ~inputs:(4 + (seed mod 9))
      else random_tree (seed + 3)
    in
    let t = Topology.analyze c in
    let polynomial =
      match t.Topology.klass with
      | Topology.Tree | Topology.Parity_chain | Topology.Adder_chain -> true
      | Topology.Fanout_reconvergent | Topology.General -> false
    in
    polynomial
    && Symbolic.total_nodes (Symbolic.build ~order:t.Topology.order c)
       <= 64 * (Circuit.num_gates c + 1)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40
       ~name:"polynomial-class circuits build under a linear node budget"
       QCheck.small_nat test)

let prop_dp012_no_false_positives =
  let test seed =
    let rng = Prng.create ~seed:(seed + 515) in
    let c =
      Generate.random ~seed:(seed + 1)
        ~inputs:(3 + Prng.int rng 4)
        ~gates:(10 + Prng.int rng 25)
        ~outputs:(1 + Prng.int rng 3)
    in
    let config =
      {
        Lint.default_config with
        Lint.rules = Some [ "DP012" ];
        verify = false;
      }
    in
    let claims =
      Lint.run ~config c |> List.concat_map (fun d -> d.Diagnostic.claims)
    in
    claims = []
    ||
    let engine = Engine.create c in
    List.for_all
      (fun (name, v) ->
        match Circuit.index_of_name c name with
        | None -> false
        | Some g ->
          Engine.redundant engine
            (Fault.Stuck { Sa_fault.line = Sa_fault.Stem g; value = v }))
      claims
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40
       ~name:"DP012 inadmissible-function claims have empty exact test sets"
       QCheck.small_nat test)

(* The doubling ladder the engine's single retry replaced, as a
   reference: the first attempt on the canonical arena (a fresh engine,
   collected — what a budgeted sweep starts every fault on), then
   attempts at 2x, 4x, ... 2^max_retries the budget, each on a fresh
   engine, stopping at the first exact one. *)
let doubling_ladder c ~budget ~max_retries fault =
  let rec climb k =
    let engine = Engine.create ~heuristic:Ordering.Natural c in
    if k = 0 then Engine.collect engine;
    match
      Engine.analyze_protected ~fault_budget:(budget lsl k) engine fault
    with
    | Engine.Budget_exceeded _ | Engine.Deadline_exceeded _ | Engine.Crashed _
      when k < max_retries ->
      climb (k + 1)
    | o -> o
  in
  climb 0

(* The one-rung ladder answers exactly what the doubling ladder did: a
   retry on a fresh rebuild allocates the same nodes whatever its cap,
   so the intermediate rungs can never succeed where the top one fails,
   and a top-rung failure has the same payload either way. *)
let prop_one_rung_matches_doubling =
  let test seed =
    let rng = Prng.create ~seed:(seed + 77) in
    let c =
      Generate.random ~seed:(seed + 77)
        ~inputs:(4 + Prng.int rng 3)
        ~gates:(20 + Prng.int rng 20)
        ~outputs:(1 + Prng.int rng 3)
    in
    let budget = 1 + Prng.int rng 12 and max_retries = Prng.int rng 3 in
    let faults =
      List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
    in
    let outcomes, _ =
      Engine.sweep
        ~config:
          {
            Sweep_config.default with
            fault_budget = Some budget;
            max_retries;
            reorder = false;
            bounds = false;
            domains = 1;
          }
        (Engine.create ~heuristic:Ordering.Natural c)
        faults
    in
    outcomes = List.map (doubling_ladder c ~budget ~max_retries) faults
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25
       ~name:"one-rung retry answers what the doubling ladder did"
       QCheck.small_nat test)

let () =
  Alcotest.run "topology"
    [
      ( "ffr",
        [
          Alcotest.test_case "FFR partition" `Quick test_ffr_partition;
          Alcotest.test_case "reconvergence detection" `Quick
            test_reconvergence_detection;
          Alcotest.test_case "cut profile" `Quick test_cut_profile;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "orders are permutations" `Quick
            test_orders_are_permutations;
          Alcotest.test_case "oracle confident on c95" `Quick test_oracle_c95;
          Alcotest.test_case "oracle neutral on c17" `Quick
            test_oracle_c17_natural;
        ] );
      ( "classification",
        [
          Alcotest.test_case "circuit classes" `Quick test_classes;
          Alcotest.test_case "cone predictions" `Quick
            test_cone_prediction_monotone;
        ] );
      ( "properties",
        [
          prop_polynomial_class_linear_build;
          prop_dp012_no_false_positives;
          prop_one_rung_matches_doubling;
        ] );
    ]
