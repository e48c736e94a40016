(* End-to-end scenarios crossing library boundaries: DP vs PODEM vs
   simulation three-way agreement, functional equivalence of c499/c1355
   seen through fault analysis, DFT monotonicity, file round-trips, the
   [dpa profile] lifetime histogram. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let float_t = Alcotest.float 1e-12

(* Three-way agreement on one circuit: for every collapsed fault,
   Difference Propagation, PODEM and exhaustive simulation must tell the
   same detectability story. *)
let test_three_way_agreement () =
  let c = Bench_suite.find "c95" in
  let engine = Engine.create c in
  List.iter
    (fun f ->
      let fault = Fault.Stuck f in
      let dp = Engine.analyze engine fault in
      let sim = Fault_sim.exhaustive_detectability c fault in
      check float_t (Sa_fault.to_string c f) sim dp.Engine.detectability;
      match Podem.generate c f with
      | Podem.Test v ->
        check bool_t "podem vector detects" true (Fault_sim.detects c fault v);
        check bool_t "dp detectable" true dp.Engine.detectable
      | Podem.Redundant -> check bool_t "dp undetectable" false dp.Engine.detectable
      | Podem.Aborted -> Alcotest.fail "abort")
    (Sa_fault.collapsed_faults c)

(* c1355 is c499 with XORs expanded; the circuits are functionally
   identical, so a primary-input stuck-at fault must have exactly the
   same detectability in both. *)
let test_c499_c1355_fault_equivalence () =
  let c499 = Bench_suite.find "c499" in
  let c1355 = Bench_suite.find "c1355" in
  let e499 = Engine.create c499 in
  let e1355 = Engine.create c1355 in
  let fault c name value =
    Fault.Stuck
      {
        Sa_fault.line = Sa_fault.Stem (Option.get (Circuit.index_of_name c name));
        value;
      }
  in
  List.iter
    (fun name ->
      List.iter
        (fun value ->
          check float_t
            (Printf.sprintf "%s s-a-%b" name value)
            (Engine.analyze e499 (fault c499 name value)).Engine.detectability
            (Engine.analyze e1355 (fault c1355 name value)).Engine.detectability)
        [ false; true ])
    [ "r0"; "r13"; "r31"; "k0"; "k7"; "en" ]

(* Adding an observation point can only grow test sets: per-fault
   detectability is monotone under DFT observation insertion. *)
let test_observation_point_monotone () =
  let base = Bench_suite.find "c95" in
  let dist = Circuit.max_levels_to_po base in
  let centre = ref 0 in
  Array.iteri (fun g d -> if d > dist.(!centre) then centre := g) dist;
  let improved = Transform.add_observation_points base [ !centre ] in
  let faults = Sa_fault.collapsed_faults base in
  let e_base = Engine.create base in
  let e_impr = Engine.create improved in
  List.iter
    (fun f ->
      (* The same fault on the improved circuit, rebound by net name. *)
      let rebind line =
        match line with
        | Sa_fault.Stem s ->
          let name = (Circuit.gate base s).Circuit.name in
          Sa_fault.Stem (Option.get (Circuit.index_of_name improved name))
        | Sa_fault.Branch br ->
          let stem_name = (Circuit.gate base br.Circuit.stem).Circuit.name in
          let sink_name = (Circuit.gate base br.Circuit.sink).Circuit.name in
          let stem = Option.get (Circuit.index_of_name improved stem_name) in
          let sink = Option.get (Circuit.index_of_name improved sink_name) in
          Sa_fault.Branch { Circuit.stem; sink; pin = br.Circuit.pin }
      in
      let before =
        (Engine.analyze e_base (Fault.Stuck f)).Engine.detectability
      in
      let after =
        (Engine.analyze e_impr
           (Fault.Stuck { f with Sa_fault.line = rebind f.Sa_fault.line }))
          .Engine.detectability
      in
      check bool_t
        ("monotone " ^ Sa_fault.to_string base f)
        true
        (after >= before -. 1e-12))
    faults

(* Random-pattern simulation can never detect a DP-undetectable fault,
   and its final coverage cannot exceed the detectable proportion. *)
let test_random_patterns_respect_redundancy () =
  let c = Bench_suite.find "c432" in
  let engine = Engine.create c in
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  let results = Engine.analyze_exact engine faults in
  let undetectable =
    List.filter_map
      (fun r -> if r.Engine.detectable then None else Some r.Engine.fault)
      results
  in
  let points = Fault_sim.random_coverage ~seed:9 ~patterns:256 c undetectable in
  List.iter
    (fun p ->
      check Alcotest.int "no undetectable fault ever detected" 0
        p.Fault_sim.faults_detected)
    points

(* Netlist writer/parser round-trip through an actual file, preserving
   fault analysis results. *)
let test_file_roundtrip_preserves_analysis () =
  let c = Bench_suite.find "alu74181" in
  let path = Filename.temp_file "dp" ".bench" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (Bench_format.print c);
      close_out oc;
      let c' = Bench_format.parse_file path in
      let e = Engine.create c and e' = Engine.create c' in
      List.iteri
        (fun i f ->
          if i mod 10 = 0 then begin
            let name = Sa_fault.to_string c f in
            let f' =
              (* Net indices may differ; rebind by name. *)
              match f.Sa_fault.line with
              | Sa_fault.Stem s ->
                {
                  f with
                  Sa_fault.line =
                    Sa_fault.Stem
                      (Option.get
                         (Circuit.index_of_name c'
                            (Circuit.gate c s).Circuit.name));
                }
              | Sa_fault.Branch _ -> f
            in
            check float_t name
              (Engine.analyze e (Fault.Stuck f)).Engine.detectability
              (Engine.analyze e' (Fault.Stuck f')).Engine.detectability
          end)
        (Sa_fault.collapsed_faults c))

(* The experiment runner produces internally consistent figure data. *)
let test_experiment_consistency () =
  let config =
    { Experiments.default with Experiments.bridge_sample = 10 }
  in
  let cr = Experiments.run ~config "c17" in
  (* fig2 row derived from the same results used by fig1-style data. *)
  let row = Trends.row_of_results cr.Experiments.circuit cr.Experiments.sa_results in
  check Alcotest.int "row total matches results" (List.length cr.Experiments.sa_results)
    row.Trends.total;
  let points =
    Bathtub.by_po_distance cr.Experiments.circuit cr.Experiments.sa_results
  in
  let grouped = List.fold_left (fun a p -> a + p.Bathtub.faults) 0 points in
  check Alcotest.int "bathtub covers every fault"
    (List.length cr.Experiments.sa_results)
    grouped

(* Decomposition, engine and simulator agree on bridging faults of a
   mid-size circuit. *)
let test_bridge_three_way () =
  let c = Bench_suite.find "alu74181" in
  let engine = Engine.create c in
  let decomposed = Decompose.create c in
  let bridges =
    Bridge.enumerate c |> List.filteri (fun i _ -> i mod 97 = 0)
  in
  List.iter
    (fun b ->
      let fault = Fault.Bridged b in
      let dp = (Engine.analyze engine fault).Engine.detectability in
      check float_t
        ("sim " ^ Bridge.to_string c b)
        (Fault_sim.exhaustive_detectability c fault)
        dp;
      check float_t
        ("decomp " ^ Bridge.to_string c b)
        dp
        (Decompose.detectability decomposed fault))
    bridges

(* The rendered histogram of [dpa profile --mem-profile]: a
   single-domain sweep on the logical clock, so the whole section is
   byte-identical from run to run. *)
let test_profile_cli_histogram_reproducible () =
  let marker = "scratch-node lifetime profile" in
  let section () =
    let code, out = Dpa_cli.run [ "profile"; "c95"; "--mem-profile" ] in
    check Alcotest.int "dpa profile exits 0" 0 code;
    let n = String.length out and m = String.length marker in
    let rec from i =
      if i + m > n then Alcotest.fail "no lifetime profile in the output"
      else if String.sub out i m = marker then String.sub out i (n - i)
      else from (i + 1)
    in
    from 0
  in
  let first = section () in
  check Alcotest.string "histogram section byte-identical across runs" first
    (section ());
  let deaths = Scanf.sscanf first "%_[^\n] clock %_d steps; %d death" Fun.id in
  check bool_t "deaths observed" true (deaths > 0)

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "three-way agreement (c95)" `Slow
            test_three_way_agreement;
          Alcotest.test_case "c499/c1355 fault equivalence" `Quick
            test_c499_c1355_fault_equivalence;
          Alcotest.test_case "observation point monotone" `Slow
            test_observation_point_monotone;
          Alcotest.test_case "random patterns respect redundancy" `Quick
            test_random_patterns_respect_redundancy;
          Alcotest.test_case "file round-trip" `Quick
            test_file_roundtrip_preserves_analysis;
          Alcotest.test_case "experiment consistency" `Quick
            test_experiment_consistency;
          Alcotest.test_case "bridge three-way (alu74181)" `Slow
            test_bridge_three_way;
        ] );
      ( "cli",
        [
          Alcotest.test_case "dpa profile histogram reproducible" `Quick
            test_profile_cli_histogram_reproducible;
        ] );
    ]
