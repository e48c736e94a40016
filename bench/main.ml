(* Regenerates every table and figure of Butler & Mercer (DAC 1990) and
   runs the ablation / micro benchmarks.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe fig2 fig5  # selected artifacts
     dune exec bench/main.exe -- -sample 300 all

   The printed series are what EXPERIMENTS.md records; absolute numbers
   differ from the paper (our large circuits are documented substitutes,
   DESIGN.md §4) but each figure's qualitative shape is asserted in the
   accompanying commentary. *)

let fmt = Format.std_formatter

let section id title =
  Format.fprintf fmt "@.==== %s : %s ====@." id title

let note text = Format.fprintf fmt "-- %s@." text

let config = ref Experiments.default

let elapsed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* [elapsed] plus the minor-heap words [f] allocated on the calling
   domain, read from [Gc.minor_words].  [Gc.quick_stat]'s [minor_words]
   is no substitute on OCaml 5: it only advances at a minor collection,
   so a region that fits in the minor heap reads 0.  Words allocated by
   other domains are not counted; the allocation gate reads the
   one-domain static sweep, where that is all of them. *)
let elapsed_words f =
  let w0 = Gc.minor_words () in
  let r, dt = elapsed f in
  (r, dt, Gc.minor_words () -. w0)

(* ------------------------------------------------------------------ *)

let table1 () =
  section "table1" "output difference functions (Table 1)";
  List.iter (fun row -> Format.fprintf fmt "  %s@." row) Rules.table_text;
  let ok = Experiments.table1_verification ~trials:200 ~vars:8 in
  note
    (Printf.sprintf
       "verified against direct faulty evaluation on 200 random cases: %s"
       (if ok then "PASS" else "FAIL"))

let fig1 () =
  section "fig1" "stuck-at detection probability histograms (c95, alu74181)";
  List.iter
    (fun (name, h) ->
      Format.fprintf fmt "  %s:@." name;
      Histogram.pp fmt h)
    (Experiments.fig1 ~config:!config ());
  note "expected shape: mass concentrated in the low-probability bins"

let fig2 () =
  section "fig2" "mean stuck-at detectability vs netlist size";
  let rows = Experiments.fig2 ~config:!config () in
  Trends.pp fmt rows;
  note
    (Printf.sprintf
       "PO-normalised mean decreases with size: strictly monotone %s, \
        Spearman rank correlation %.3f (paper's trend needs it strongly \
        negative)"
       (if Trends.decreasing_normalized rows then "HOLDS" else "NO")
       (Trends.spearman_size_normalized rows));
  let find name = List.find (fun r -> r.Trends.title = name) rows in
  let c499 = find "c499" and c1355 = find "c1355" in
  note
    (Printf.sprintf
       "c1355 (expanded c499) is less testable than c499: %s (%.6f < %.6f)"
       (if c1355.Trends.normalized < c499.Trends.normalized then "HOLDS"
        else "VIOLATED")
       c1355.Trends.normalized c499.Trends.normalized)

let bathtub_commentary points =
  match points with
  | first :: (_ :: _ as rest) ->
    let last = List.nth rest (List.length rest - 1) in
    let interior =
      List.filteri (fun i _ -> i > 0 && i < List.length points - 1) points
    in
    let min_interior =
      List.fold_left (fun acc p -> Float.min acc p.Bathtub.mean) infinity
        interior
    in
    note
      (Printf.sprintf
         "bathtub shape (ends above the interior minimum): %s (%.4f / %.4f \
          vs interior min %.4f)"
         (if
            first.Bathtub.mean > min_interior
            && last.Bathtub.mean >= min_interior
          then "HOLDS"
          else "VIOLATED")
         first.Bathtub.mean last.Bathtub.mean min_interior)
  | _ -> note "too few distance groups for shape commentary"

let fig3 () =
  section "fig3" "mean stuck-at detectability vs max levels to PO (c1355)";
  let points = Experiments.fig3 ~config:!config () in
  Bathtub.pp fmt points;
  bathtub_commentary points;
  let pi_points = Experiments.fig3_pi ~config:!config () in
  Format.fprintf fmt "  companion series by PI level:@.";
  Bathtub.pp fmt pi_points;
  (* The paper's wording is that PI-distance plots look "much more
     random"; jaggedness of the curve (mean absolute step between
     adjacent group means, scaled by the overall mean) measures that. *)
  let roughness pts =
    let means = List.map (fun p -> p.Bathtub.mean) pts in
    let rec steps = function
      | a :: (b :: _ as rest) -> Float.abs (b -. a) :: steps rest
      | [ _ ] | [] -> []
    in
    let diffs = steps means in
    let overall = Histogram.mean means in
    if diffs = [] || overall <= 0.0 then 0.0
    else Histogram.mean diffs /. overall
  in
  note
    (Printf.sprintf
       "curve roughness: PO distance %.3f vs PI level %.3f (paper: the PI \
        plots look more random); |corr| PO %.3f vs PI %.3f"
       (roughness points) (roughness pi_points)
       (Float.abs (Bathtub.correlation points))
       (Float.abs (Bathtub.correlation pi_points)))

let fig4 () =
  section "fig4" "stuck-at adherence histogram (alu74181)";
  let h = Experiments.fig4 ~config:!config () in
  Histogram.pp fmt h;
  let spike = h.Histogram.proportions.(h.Histogram.bins - 1) in
  let neighbour = h.Histogram.proportions.(h.Histogram.bins - 2) in
  note
    (Printf.sprintf
       "rise at adherence 1.0: last bin %.3f vs its neighbour %.3f — %s \
        (paper: low values elsewhere, sharp rise at one)"
       spike neighbour
       (if spike > neighbour then "HOLDS" else "VIOLATED"))

let fig5 () =
  section "fig5" "proportion of NFBFs with stuck-at behaviour";
  Format.fprintf fmt "  %-12s %-20s %-20s@." "circuit" "AND (stuck/total)"
    "OR (stuck/total)";
  let data = Experiments.fig5 ~config:!config () in
  List.iter
    (fun (name, summaries) ->
      let cell kind =
        match
          List.find_opt (fun s -> s.Bridge_class.kind = kind) summaries
        with
        | Some s ->
          Printf.sprintf "%.3f (%d/%d)" s.Bridge_class.proportion
            s.Bridge_class.stuck_like s.Bridge_class.total
        | None -> "-"
      in
      Format.fprintf fmt "  %-12s %-20s %-20s@." name
        (cell Bridge.Wired_and) (cell Bridge.Wired_or))
    data;
  note "expected: proportions generally low (agrees with IFA, paper §4.2)";
  let anti =
    List.for_all
      (fun (_, summaries) ->
        let prop kind =
          match
            List.find_opt (fun s -> s.Bridge_class.kind = kind) summaries
          with
          | Some s -> s.Bridge_class.proportion
          | None -> 0.0
        in
        Float.min (prop Bridge.Wired_and) (prop Bridge.Wired_or) < 0.15)
      data
  in
  note
    (Printf.sprintf
       "AND-heavy circuits are OR-light and vice versa (paper): %s (the \
        smaller of each pair stays below 0.15)"
       (if anti then "HOLDS" else "VIOLATED"))

let fig6 () =
  section "fig6" "bridging detection probability histograms (c95)";
  let and_h, or_h = Experiments.fig6 ~config:!config () in
  Histogram.pp_pair ~labels:("AND-BF", "OR-BF") fmt (and_h, or_h);
  note "expected: AND and OR profiles nearly identical (paper §4.2)"

let fig7 () =
  section "fig7" "mean bridging detectability vs netlist size";
  let rows = Experiments.fig7 ~config:!config () in
  Trends.pp fmt rows;
  let sa_rows = Experiments.fig2 ~config:!config () in
  let higher =
    List.fold_left2
      (fun acc (bf : Trends.row) (sa : Trends.row) ->
        if bf.Trends.mean_detectability >= sa.Trends.mean_detectability then
          acc + 1
        else acc)
      0 rows sa_rows
  in
  note
    (Printf.sprintf
       "bridging means slightly above stuck-at means (paper §4.2): %d of %d \
        circuits"
       higher (List.length rows));
  note
    (Printf.sprintf
       "normalised trend still decreasing: Spearman rank correlation %.3f"
       (Trends.spearman_size_normalized rows))

let fig8 () =
  section "fig8" "mean bridging detectability vs max levels to PO (c1355)";
  let and_pts, or_pts = Experiments.fig8 ~config:!config () in
  Format.fprintf fmt "  AND bridges:@.";
  Bathtub.pp fmt and_pts;
  Format.fprintf fmt "  OR bridges:@.";
  Bathtub.pp fmt or_pts;
  note "expected: same bathtub tendency as Figure 3, AND ~ OR"

let obs_po () =
  section "obs-po" "POs fed vs POs observable (justify-to-closest-PO)";
  List.iter
    (fun (name, s) ->
      Format.fprintf fmt "  %-12s" name;
      Po_stats.pp fmt s)
    (Experiments.po_observability ~config:!config ());
  note "paper: 'these numbers are almost always the same'"

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let ablation_order () =
  section "ablation-order"
    "BDD nodes and build time per variable-ordering heuristic";
  Format.fprintf fmt "  %-12s %-12s %12s %10s@." "circuit" "heuristic"
    "nodes" "seconds";
  List.iter
    (fun name ->
      let c = Bench_suite.find name in
      List.iter
        (fun h ->
          let sym, dt = elapsed (fun () -> Symbolic.build ~heuristic:h c) in
          Format.fprintf fmt "  %-12s %-12s %12d %10.3f@." name
            (Ordering.name h) (Symbolic.total_nodes sym) dt)
        Ordering.all)
    [ "alu74181"; "c432"; "c499"; "c1355"; "c1908" ];
  note "natural order exploits the benchmark input ordering (paper §2.2)";
  (* How far is natural from a locally optimal order?  Adjacent-swap
     hill climbing on the two mid-size circuits. *)
  Format.fprintf fmt "  hill-climbed orders (adjacent swaps, from natural):@.";
  List.iter
    (fun name ->
      let c = Bench_suite.find name in
      let r, dt = elapsed (fun () -> Order_search.hill_climb c) in
      Format.fprintf fmt
        "  %-12s %d -> %d nodes (%d passes, %.1fs)@." name
        r.Order_search.start_nodes r.Order_search.nodes
        r.Order_search.passes dt)
    [ "alu74181"; "c432" ];
  (* Seeding the climb from the topology oracle's synthesized order: a
     structurally better start should converge in fewer passes. *)
  Format.fprintf fmt "  hill climbing seeded by the topology oracle:@.";
  List.iter
    (fun name ->
      let c = Bench_suite.find name in
      let from h =
        let r, dt = elapsed (fun () -> Order_search.hill_climb ~start:h c) in
        Printf.sprintf "%s %d -> %d nodes, %d pass(es), %.1fs"
          (Ordering.name h) r.Order_search.start_nodes r.Order_search.nodes
          r.Order_search.passes dt
      in
      Format.fprintf fmt "  %-12s %s;  %s@." name (from Ordering.Natural)
        (from Ordering.Oracle))
    [ "c432"; "c499" ]

let ablation_decomp () =
  section "ablation-decomp"
    "monolithic engine vs per-PO cone decomposition (exact in both)";
  Format.fprintf fmt "  %-12s %8s %12s %12s %8s@." "circuit" "faults"
    "engine(s)" "decomp(s)" "agree";
  List.iter
    (fun name ->
      let c = Bench_suite.find name in
      let faults =
        List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
        |> List.filteri (fun i _ -> i mod 7 = 0)
      in
      let engine = Engine.create c in
      let engine_results, engine_t =
        elapsed (fun () ->
            List.map
              (fun f -> (Engine.analyze engine f).Engine.detectability)
              faults)
      in
      let decomposed = Decompose.create c in
      let decomp_results, decomp_t =
        elapsed (fun () ->
            List.map (fun f -> Decompose.detectability decomposed f) faults)
      in
      let agree =
        List.for_all2
          (fun a b -> Float.abs (a -. b) < 1e-12)
          engine_results decomp_results
      in
      Format.fprintf fmt "  %-12s %8d %12.2f %12.2f %8s@." name
        (List.length faults) engine_t decomp_t
        (if agree then "yes" else "NO"))
    [ "c432"; "c499"; "c1355" ];
  note
    "the paper used (lossy) functional decomposition for c499 and larger; \
     this variant is exact and the table records its cost/benefit"

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper's artifacts                             *)

let scoap () =
  section "scoap"
    "exact detectability vs SCOAP estimates (observability claim, §4.1)";
  Format.fprintf fmt "  %-12s %10s %10s %12s@." "circuit" "|rho(CO)|"
    "|rho(CC)|" "|rho(CO+CC)|";
  let verdicts =
    List.map
      (fun name ->
        let cr = Experiments.run ~config:!config name in
        let measures = Scoap.compute cr.Experiments.circuit in
        let pairs value_of =
          cr.Experiments.sa_results
          |> List.filter (fun r -> r.Engine.detectable)
          |> List.filter_map (fun r ->
                 match r.Engine.fault with
                 | Fault.Stuck f ->
                   let stem = Sa_fault.stem_of_line f.Sa_fault.line in
                   let v = value_of measures stem f.Sa_fault.value in
                   if v = max_int then None
                   else Some (float_of_int v, r.Engine.detectability)
                 | Fault.Bridged _ | Fault.Multi_stuck _ -> None)
        in
        let rho value_of = Float.abs (Correlation.spearman (pairs value_of)) in
        let co m stem _ = Scoap.observability m stem in
        let cc m stem value =
          Scoap.controllability m ~net:stem ~value:(not value)
        in
        let both m stem value = Scoap.stuck_at_difficulty m ~stem ~value in
        let rho_co = rho co and rho_cc = rho cc and rho_both = rho both in
        Format.fprintf fmt "  %-12s %10.3f %10.3f %12.3f@." name rho_co
          rho_cc rho_both;
        rho_co >= rho_cc)
      [ "c95"; "alu74181"; "c432"; "c499"; "c1355" ]
  in
  note
    (Printf.sprintf
       "detectability more correlated with observability than \
        controllability (paper §4.1): %d of %d circuits"
       (List.length (List.filter Fun.id verdicts))
       (List.length verdicts))

let approx_vs_exact () =
  section "approx-vs-exact"
    "topological signal probabilities vs exact OBDD syndromes";
  Format.fprintf fmt "  %-12s %6s %12s %12s %14s@." "circuit" "nets"
    "mean |err|" "max |err|" "exact on trees";
  List.iter
    (fun name ->
      let cr = Experiments.run ~config:!config name in
      let sym = Engine.symbolic cr.Experiments.engine in
      let s = Signal_prob.compare_with_exact cr.Experiments.circuit sym in
      Format.fprintf fmt "  %-12s %6d %12.4f %12.4f %14s@." name
        s.Signal_prob.nets s.Signal_prob.mean_abs_error
        s.Signal_prob.max_abs_error
        (if s.Signal_prob.exact_on_trees then "yes" else "NO"))
    Bench_suite.names;
  note
    "reconvergent fanout breaks the independence assumption — the exact \
     functional analysis is what the paper is arguing for"

let collapse () =
  section "collapse" "structural vs functional fault collapsing";
  List.iter
    (fun name ->
      let cr = Experiments.run ~config:!config name in
      Format.fprintf fmt "  %-12s" name;
      Fun_collapse.pp_summary fmt
        (Fun_collapse.summarize cr.Experiments.engine cr.Experiments.circuit))
    [ "c17"; "fulladder"; "c95"; "alu74181"; "c432"; "c499" ];
  note
    "functional classes <= structural classes: equivalence the local rules \
     cannot see (McCluskey-Clegg [7] is sound but incomplete)"

let compaction () =
  section "compaction" "test-set compaction from complete test sets";
  Format.fprintf fmt "  %-12s %8s %12s %12s %8s@." "circuit" "faults"
    "PODEM tests" "DP-greedy" "verified";
  List.iter
    (fun name ->
      let cr = Experiments.run ~config:!config name in
      let c = cr.Experiments.circuit in
      let sa_faults = Sa_fault.collapsed_faults c in
      let podem = Podem.run_all c sa_faults in
      let outcome =
        Compact.greedy cr.Experiments.engine
          (List.map (fun f -> Fault.Stuck f) sa_faults)
      in
      let verified =
        Compact.verify c
          (List.map (fun f -> Fault.Stuck f) sa_faults)
          outcome.Compact.vectors
      in
      Format.fprintf fmt "  %-12s %8d %12d %12d %8s@." name
        (List.length sa_faults)
        (List.length podem.Podem.tests)
        (List.length outcome.Compact.vectors)
        (if verified then "yes" else "NO"))
    [ "c17"; "fulladder"; "c95"; "alu74181"; "c432" ];
  note
    "complete test sets turn compaction into set covering; the greedy \
     cover usually needs fewer vectors than PODEM-with-dropping (the \
     hardest-first heuristic can lose on wide circuits like c432)"

let multi () =
  section "multi"
    "double stuck-at faults: DP exactness and single-SA test-set coverage";
  Format.fprintf fmt "  %-12s %8s %12s %14s %12s@." "circuit" "pairs"
    "mean det" "undetectable" "SA-covered";
  List.iter
    (fun name ->
      let cr = Experiments.run ~config:!config name in
      let c = cr.Experiments.circuit in
      let rng = Prng.create ~seed:(!config).Experiments.seed in
      let n = Circuit.num_gates c in
      let pairs =
        List.init 200 (fun _ ->
            let rec draw () =
              let a = Prng.int rng n and b = Prng.int rng n in
              if a = b then draw ()
              else Fault.multi [ (a, Prng.bool rng); (b, Prng.bool rng) ]
            in
            draw ())
      in
      let results = Engine.analyze_exact cr.Experiments.engine pairs in
      let detectable = List.filter (fun r -> r.Engine.detectable) results in
      let mean =
        Histogram.mean
          (List.map (fun r -> r.Engine.detectability) detectable)
      in
      (* Coverage of the doubles by a complete single-SA test set. *)
      let podem = Podem.run_all c (Sa_fault.collapsed_faults c) in
      let vectors = List.map snd podem.Podem.tests in
      let covered =
        List.length
          (List.filter
             (fun r ->
               List.exists
                 (fun v -> Fault_sim.detects c r.Engine.fault v)
                 vectors)
             detectable)
      in
      Format.fprintf fmt "  %-12s %8d %12.4f %14d %9d/%d@." name
        (List.length pairs) mean
        (List.length results - List.length detectable)
        covered (List.length detectable))
    [ "c95"; "alu74181"; "c432" ];
  note
    "the Table-1 rules are exact under simultaneous differences, so \
     multiple faults need no new machinery (paper §3); coverage of \
     doubles by single-SA tests echoes Hughes-McCluskey [2]"

let catapult () =
  section "catapult"
    "Difference Propagation vs Boolean-difference (CATAPULT-style)";
  Format.fprintf fmt "  %-12s %8s %12s %14s %8s@." "circuit" "faults"
    "DP (s)" "Bool-diff (s)" "agree";
  List.iter
    (fun name ->
      let cr = Experiments.run ~config:!config name in
      let faults =
        Sa_fault.collapsed_faults cr.Experiments.circuit
        |> List.filteri (fun i _ -> i mod 4 = 0)
      in
      let engine = cr.Experiments.engine in
      let dp, dp_t =
        elapsed (fun () ->
            List.map
              (fun f ->
                (Engine.analyze engine (Fault.Stuck f)).Engine.detectability)
              faults)
      in
      let cat, cat_t =
        elapsed (fun () ->
            List.map (fun f -> Catapult.detectability engine f) faults)
      in
      let agree =
        List.for_all2 (fun a b -> Float.abs (a -. b) < 1e-12) dp cat
      in
      Format.fprintf fmt "  %-12s %8d %12.2f %14.2f %8s@." name
        (List.length faults) dp_t cat_t
        (if agree then "yes" else "NO"))
    [ "c95"; "alu74181"; "c432"; "c499" ];
  note
    "the paper built DP as the alternative to CATAPULT [13]: identical \
     exact results without deriving observability disjointly from control \
     (no explicit Boolean difference)"

let dft () =
  section "dft" "exact greedy test-point planning (testable design)";
  Format.fprintf fmt "  %-12s %12s %-40s@." "circuit" "objective"
    "steps (net, kind, objective after)";
  List.iter
    (fun name ->
      let c = Bench_suite.find name in
      let plan = Dft.greedy ~budget:3 ~candidate_limit:6 c in
      let step_text s =
        Printf.sprintf "%s:%s->%.4f" s.Dft.net_name
          (match s.Dft.kind with `Observe -> "obs" | `Control0 -> "ctl")
          s.Dft.mean_after
      in
      Format.fprintf fmt "  %-12s %12.4f %-40s@." name plan.Dft.mean_before
        (String.concat "  " (List.map step_text plan.Dft.steps)))
    [ "c17"; "c95"; "alu74181" ];
  note
    "each step is chosen by exact mean-detectability gain over the whole \
     fault set — the paper's DFT question (control vs observation points) \
     answered per circuit, not by heuristic"

let transition () =
  section "transition"
    "gross-delay (transition) faults from complete stuck-at test sets";
  Format.fprintf fmt "  %-12s %8s %12s %12s %14s@." "circuit" "faults"
    "mean (rise)" "mean (fall)" "undetectable";
  List.iter
    (fun name ->
      let cr = Experiments.run ~config:!config name in
      let engine = cr.Experiments.engine in
      let c = cr.Experiments.circuit in
      let faults = Transition.all c in
      let dets =
        List.map (fun f -> (f, Transition.pair_detectability engine f)) faults
      in
      let mean edge =
        Histogram.mean
          (List.filter_map
             (fun ((f : Transition.t), d) ->
               if f.Transition.edge = edge && d > 0.0 then Some d else None)
             dets)
      in
      let undetectable =
        List.length (List.filter (fun (_, d) -> d = 0.0) dets)
      in
      Format.fprintf fmt "  %-12s %8d %12.4f %12.4f %14d@." name
        (List.length faults) (mean Transition.Rise) (mean Transition.Fall)
        undetectable)
    [ "c17"; "c95"; "alu74181"; "c432" ];
  note
    "pair detectability = launch probability x stuck-at detectability — \
     exact over the 2^(2n) pair space, from data DP already computed \
     (the paper's 'more logical fault models', §1/§5)"

(* ------------------------------------------------------------------ *)
(* Micro benchmarks (Bechamel)                                         *)

let run_bechamel name tests =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name tests) in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold (fun key v acc -> (key, v) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (key, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) ->
        Format.fprintf fmt "  %-44s %14.0f ns/run@." key est
      | Some [] | None -> Format.fprintf fmt "  %-44s %14s@." key "n/a")
    rows

let micro () =
  section "micro" "Bechamel micro-benchmarks";
  let open Bechamel in
  let bdd_tests =
    let m = Bdd.create 24 in
    let rng = Prng.create ~seed:5 in
    let f =
      Bdd.bxor_list m (List.init 24 (Bdd.var m))
    in
    let g =
      List.init 12 (fun i -> Bdd.band m (Bdd.var m i) (Bdd.var m (i + 12)))
      |> Bdd.bor_list m
    in
    [
      Test.make ~name:"bdd-and" (Staged.stage (fun () -> Bdd.band m f g));
      Test.make ~name:"bdd-xor" (Staged.stage (fun () -> Bdd.bxor m f g));
      Test.make ~name:"bdd-satfrac" (Staged.stage (fun () -> Bdd.sat_fraction m g));
      Test.make ~name:"bdd-random-mix"
        (Staged.stage (fun () ->
             let a = Bdd.var m (Prng.int rng 24) in
             Bdd.bxor m g (Bdd.band m f a)));
    ]
  in
  Format.fprintf fmt "  [bdd core operations]@.";
  run_bechamel "bdd" bdd_tests;
  (* Per-fault analysis cost: DP vs exhaustive simulation vs PODEM on a
     circuit small enough for exhaustion. *)
  let alu = Bench_suite.find "alu74181" in
  let engine = Engine.create alu in
  let fault =
    Fault.Stuck (List.nth (Sa_fault.collapsed_faults alu) 5)
  in
  let sa_fault =
    match fault with
    | Fault.Stuck f -> f
    | Fault.Bridged _ | Fault.Multi_stuck _ -> assert false
  in
  let per_fault =
    [
      Test.make ~name:"dp-analyze-alu74181"
        (Staged.stage (fun () -> Engine.analyze engine fault));
      Test.make ~name:"exhaustive-sim-alu74181"
        (Staged.stage (fun () -> Fault_sim.exhaustive_count alu fault));
      Test.make ~name:"podem-alu74181"
        (Staged.stage (fun () -> Podem.generate alu sa_fault));
    ]
  in
  Format.fprintf fmt "  [per-fault cost, 14-input ALU: exact DP vs 2^14 \
                      simulation vs single-test PODEM]@.";
  run_bechamel "fault" per_fault;
  let c432 = Bench_suite.find "c432" in
  let engine432 = Engine.create c432 in
  let fault432 =
    Fault.Stuck (List.nth (Sa_fault.collapsed_faults c432) 40)
  in
  let large =
    [
      Test.make ~name:"dp-analyze-c432"
        (Staged.stage (fun () -> Engine.analyze engine432 fault432));
      Test.make ~name:"engine-build-c95"
        (Staged.stage (fun () -> Engine.create (Bench_suite.find "c95")));
    ]
  in
  Format.fprintf fmt "  [36-input circuit: DP keeps running where \
                      exhaustion (2^36) cannot]@.";
  run_bechamel "large" large;
  note "DP's advantage grows exponentially with input count (paper §1, §3)"

(* ------------------------------------------------------------------ *)
(* Parallel-throughput regression harness.  One [perf] invocation
   rewrites BENCH_dp.json (the full latest-run matrix, after every
   circuit) and gates the static@1 reference sweep against its record
   in BENCH_baseline.jsonl.                                            *)

(* Snapshot lanes beside the static@1 reference, which always runs: a 1
   here adds no lane. *)
let perf_domain_counts = ref [ 2; 4; 8 ]
let perf_circuits = ref Bench_suite.names
let perf_out = ref "BENCH_dp.json"
let perf_gate = ref false

type perf_run = {
  scheduler : Engine.scheduler;
  domains : int;
  seconds : float;
  faults_per_sec : float;
  matches_sequential : bool;
  degraded : int;
  stats : Engine.sweep_stats;
  minor_words : float; (* allocated by the timed region ([elapsed_words]) *)
}

(* Analysis CPU over the wall time the domains had between them: 1.0
   when no domain ever waited for work. *)
let parallel_efficiency (s : Engine.sweep_stats) =
  let busy = s.analysis_wall_seconds *. float_of_int s.domains in
  if busy > 0.0 then s.analysis_cpu_seconds /. busy else 0.0

(* Below this many apply steps in the sequential reference a sweep is
   cheap enough that the engine keeps one batch per domain (its
   tiny-sweep floor: c17 and fulladder), so the batch-balance gate
   leaves it alone. *)
let balance_min_steps = 10_000

let write_perf_json path rows =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "{\n  \"hardware_domains\": %d,\n"
    (Parallel.available_domains ());
  Printf.bprintf buf "  \"bridge_sample\": %d,\n"
    (!config).Experiments.bridge_sample;
  Buffer.add_string buf "  \"circuits\": [\n";
  List.iteri
    (fun i (name, faults, runs) ->
      Printf.bprintf buf "    { \"name\": %S, \"faults\": %d, \"runs\": [" name
        faults;
      List.iteri
        (fun j r ->
          Printf.bprintf buf
            "%s\n      { \"scheduler\": %S, \"domains\": %d, \
             \"seconds\": %.6f, \"faults_per_sec\": %.3f, \
             \"matches_sequential\": %b, \"degraded\": %d, \
             \"build_seconds\": %.6f, \"snapshot_seconds\": %.6f, \
             \"analysis_wall_seconds\": %.6f, \
             \"analysis_cpu_seconds\": %.6f, \
             \"gc_seconds\": %.6f, \"gc_collections\": %d, \
             \"batches\": %d, \"largest_batch\": %d, \
             \"parallel_efficiency\": %.4f, \"good_functions_built\": %d, \
             \"scratch_peak_nodes\": %d, \"apply_steps\": %d, \
             \"nodes_allocated\": %d, \"rescued_faults\": %d, \
             \"sift_seconds\": %.6f, \"minor_words\": %.0f, \
             \"hardware_domains\": %d }"
            (if j = 0 then "" else ",")
            (Engine.scheduler_to_string r.scheduler)
            r.domains r.seconds r.faults_per_sec r.matches_sequential
            r.degraded r.stats.Engine.build_seconds
            r.stats.Engine.snapshot_seconds
            r.stats.Engine.analysis_wall_seconds
            r.stats.Engine.analysis_cpu_seconds r.stats.Engine.gc_seconds
            r.stats.Engine.gc_collections r.stats.Engine.batch_count
            r.stats.Engine.largest_batch (parallel_efficiency r.stats)
            r.stats.Engine.good_functions_built
            r.stats.Engine.scratch_peak_nodes r.stats.Engine.apply_steps
            r.stats.Engine.nodes_allocated r.stats.Engine.rescued_faults
            r.stats.Engine.sift_seconds r.minor_words
            r.stats.Engine.hardware_domains)
        runs;
      Printf.bprintf buf "\n    ] }%s\n"
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Gate baseline: BENCH_baseline.jsonl, one flat JSON object per line
   and one record per gated lane and key.  The key holds every setting
   that changes the gated number.  Gated runs only read the file;
   [-bless] rewrites the records its run measured, keeps the rest, and
   skips the baseline comparison (the run becomes the record).  Only
   deterministic measurements are blessed: perf's static@1 counters and
   the hostile and topo lanes in gate mode.                             *)

let baseline_path = "BENCH_baseline.jsonl"
let bless = ref false

let usage_error m =
  Format.eprintf "%s@." m;
  exit 2

type record =
  | Perf of {
      circuit : string;
      faults : int;
      apply_steps : int;
      scratch_peak_nodes : int;
    }
  | Hostile of { circuit : string; faults : int; budget : int; degraded : int }
  | Topo of { sample : int; rho_scratch : float }

let record_key = function
  | Perf r -> Printf.sprintf "perf circuit=%s faults=%d" r.circuit r.faults
  | Hostile r ->
    Printf.sprintf "hostile circuit=%s faults=%d budget=%d" r.circuit r.faults
      r.budget
  | Topo r -> Printf.sprintf "topo sample=%d" r.sample

(* The bench arguments that measure and bless a record with [r]'s key. *)
let bless_command = function
  | Perf r -> Printf.sprintf "-perf-circuits %s -bless perf" r.circuit
  | Hostile r ->
    Printf.sprintf
      "-hostile-circuits %s -hostile-budget %d -hostile-deadline-ms 0 \
       -hostile-gate -bless hostile"
      r.circuit r.budget
  | Topo r -> Printf.sprintf "-topo-sample %d -topo-gate -bless topo" r.sample

let record_line r =
  let str = Journal.json_escape in
  match r with
  | Perf r ->
    Printf.sprintf
      {|{"lane":"perf","circuit":"%s","faults":%d,"apply_steps":%d,"scratch_peak_nodes":%d}|}
      (str r.circuit) r.faults r.apply_steps r.scratch_peak_nodes
  | Hostile r ->
    Printf.sprintf
      {|{"lane":"hostile","circuit":"%s","faults":%d,"budget":%d,"degraded":%d}|}
      (str r.circuit) r.faults r.budget r.degraded
  | Topo r ->
    Printf.sprintf {|{"lane":"topo","sample":%d,"rho_scratch":%.6f}|} r.sample
      r.rho_scratch

exception Bad_record of string

let record_of_line line =
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad_record m)) fmt in
  let fields =
    match Journal.parse_flat_object line with
    | Some fields -> fields
    | None -> bad "not a one-line flat JSON object"
  in
  let expect names =
    let keys = List.map fst fields in
    List.iter
      (fun k ->
        if not (List.mem k ("lane" :: names)) then bad "unexpected field %S" k)
      keys;
    if List.length (List.sort_uniq compare keys) < List.length keys then
      bad "a field appears twice"
  in
  let str k =
    match Journal.field_string fields k with
    | Some s -> s
    | None -> bad "missing or non-string field %S" k
  in
  let int k =
    match Journal.field_int fields k with
    | Some v when v >= 0 -> v
    | Some _ -> bad "negative field %S" k
    | None -> bad "missing or non-integer field %S" k
  in
  match str "lane" with
  | "perf" ->
    expect [ "circuit"; "faults"; "apply_steps"; "scratch_peak_nodes" ];
    Perf
      {
        circuit = str "circuit";
        faults = int "faults";
        apply_steps = int "apply_steps";
        scratch_peak_nodes = int "scratch_peak_nodes";
      }
  | "hostile" ->
    expect [ "circuit"; "faults"; "budget"; "degraded" ];
    Hostile
      {
        circuit = str "circuit";
        faults = int "faults";
        budget = int "budget";
        degraded = int "degraded";
      }
  | "topo" ->
    expect [ "sample"; "rho_scratch" ];
    let rho_scratch =
      match Journal.field_float fields "rho_scratch" with
      | Some f when Float.is_finite f -> f
      | _ -> bad "missing or non-numeric field \"rho_scratch\""
    in
    Topo { sample = int "sample"; rho_scratch }
  | lane -> bad "unknown lane %S" lane

(* Every record, in file order; a missing file is an empty baseline.  A
   bad line, or a second record for one key, is a [file:N:] diagnostic
   and exit 2: no gate reads a half-understood baseline. *)
let load_baseline () =
  if not (Sys.file_exists baseline_path) then []
  else
    In_channel.with_open_text baseline_path (fun ic ->
        let first_line = Hashtbl.create 16 in
        let rec go n acc =
          match In_channel.input_line ic with
          | None -> List.rev acc
          | Some line ->
            let fail m =
              Format.eprintf "%s:%d: %s@." baseline_path n m;
              exit 2
            in
            let r = try record_of_line line with Bad_record m -> fail m in
            let key = record_key r in
            (match Hashtbl.find_opt first_line key with
            | Some first ->
              fail
                (Printf.sprintf "duplicate key %s (first on line %d)" key first)
            | None -> Hashtbl.add first_line key n);
            go (n + 1) (r :: acc)
        in
        go 1 [])

(* Loaded on first use, so a lane that neither gates nor blesses never
   reads the file; [bless_record] keeps it in step with the disk. *)
let baseline = ref None

let baseline_records () =
  match !baseline with
  | Some records -> records
  | None ->
    let records = load_baseline () in
    baseline := Some records;
    records

(* The committed record with [r]'s key, for a gate to compare [r] with. *)
let baseline_for r =
  let key = record_key r in
  List.find_opt (fun b -> record_key b = key) (baseline_records ())

(* A gate with nothing to compare against fails, naming the fix. *)
let missing_baseline r =
  Printf.sprintf "no baseline record %s in %s; record one with: dune exec \
                  bench/main.exe -- %s"
    (record_key r) baseline_path (bless_command r)

(* Under [-bless]: replace [r]'s record (or append it) and rewrite the
   file through a temporary, so an interrupted bless leaves the old
   baseline whole. *)
let bless_record r =
  if !bless then begin
    let key = record_key r in
    let current = baseline_records () in
    let records =
      if List.exists (fun b -> record_key b = key) current then
        List.map (fun b -> if record_key b = key then r else b) current
      else current @ [ r ]
    in
    baseline := Some records;
    let tmp = baseline_path ^ ".tmp" in
    Out_channel.with_open_text tmp (fun oc ->
        List.iter
          (fun b -> Out_channel.output_string oc (record_line b ^ "\n"))
          records);
    Sys.rename tmp baseline_path;
    note ("blessed " ^ record_line r)
  end

let perf () =
  section "perf"
    "fault-sweep throughput: shared-snapshot sweeps vs the sequential \
     reference";
  (* A corrupt baseline stops the lane before any sweep runs. *)
  if !perf_gate || !bless then ignore (baseline_records ());
  let failures = ref [] in
  let fail fmt_str =
    Printf.ksprintf (fun m -> failures := m :: !failures) fmt_str
  in
  Format.fprintf fmt
    "  %-10s %7s %-9s %4s %8s %11s %7s %7s %7s %7s %5s %10s %6s@." "circuit"
    "faults" "sched" "dom" "seconds" "faults/sec" "build" "snap" "wall"
    "cpu" "gc#" "steps" "agree";
  let rows = ref [] in
  List.iter
    (fun name ->
        let c =
          try Bench_suite.find name
          with Not_found ->
            Format.eprintf "perf: unknown circuit %S (known: %s)@." name
              (String.concat ", " Bench_suite.names);
            exit 2
        in
        let faults =
          List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
          @
          let bf, _ = Experiments.bridge_faults !config c in
          List.map (fun b -> Fault.Bridged b) bf
        in
        let n = List.length faults in
        let baseline = ref [] in
        let measure d =
          (* Engine construction is inside the timed region for every
             configuration: each path pays its own symbolic builds, and
             that overhead belongs in the throughput. *)
          let (results, stats), dt, minor_words =
            elapsed_words (fun () ->
                Engine.sweep
                  ~config:{ Sweep_config.default with domains = d }
                  (Engine.create c) faults)
          in
          let matches_sequential =
            if !baseline = [] then begin
              baseline := results;
              true
            end
            else results = !baseline
          in
          let degraded = List.length (Engine.degraded results) in
          let faults_per_sec = float_of_int n /. dt in
          Format.fprintf fmt
            "  %-10s %7d %-9s %4d %8.2f %11.1f %7.2f %7.2f %7.2f %7.2f \
             %5d %10d %6s@."
            name n
            (Engine.scheduler_to_string stats.Engine.scheduler)
            d dt faults_per_sec stats.Engine.build_seconds
            stats.Engine.snapshot_seconds stats.Engine.analysis_wall_seconds
            stats.Engine.analysis_cpu_seconds stats.Engine.gc_collections
            stats.Engine.apply_steps
            (if matches_sequential then "yes" else "NO");
          {
            scheduler = stats.Engine.scheduler;
            domains = d;
            seconds = dt;
            faults_per_sec;
            matches_sequential;
            degraded;
            stats;
            minor_words;
          }
        in
        (* The one-domain run (the static loop) is the reference: every
           snapshot run must reproduce its outcome list bit for bit.
           (Bound first — [::] would evaluate its right side first.) *)
        let reference = measure 1 in
        let wide = List.filter (fun d -> d > 1) !perf_domain_counts in
        let runs = reference :: List.map measure wide in
        (* Within-run gates: bit-identity everywhere, no inverted
           scaling, balanced batches, and one snapshot build per sweep
           regardless of the domain count. *)
        List.iter
          (fun r ->
            if not r.matches_sequential then
              fail "%s: %s@%d does not match the sequential reference" name
                (Engine.scheduler_to_string r.scheduler)
                r.domains)
          runs;
        let hw = Parallel.available_domains () in
        (* Scaling can only be demanded of domain counts the hardware
           can actually run in parallel; oversubscribed points are
           reported but not gated. *)
        let hi = List.fold_left max 1 (List.filter (fun d -> d <= hw) wide) in
        (match List.find_opt (fun r -> r.domains = hi) runs with
        | Some b
          when hi > 1 && b.faults_per_sec < 0.9 *. reference.faults_per_sec
          ->
          fail
            "%s: inverted scaling — snapshot@%d %.1f faults/s < 0.9x \
             static@1 %.1f faults/s"
            name b.domains b.faults_per_sec reference.faults_per_sec
        | _ -> ());
        (* Balance: a multi-domain snapshot sweep must not leave one
           domain holding a batch of more than 1/(2d) of the faults —
           the others would run dry while it drains.  Batch membership
           is deterministic, so this gates the same on any machine with
           the domains to run it. *)
        if reference.stats.Engine.apply_steps >= balance_min_steps then
          List.iter
            (fun r ->
              let largest = r.stats.Engine.largest_batch in
              if
                r.scheduler = Engine.Snapshot
                && r.domains > 1 && r.domains <= hw
                && 2 * r.domains * largest > n
              then
                fail
                  "%s: unbalanced batches — snapshot@%d's largest batch \
                   holds %d of %d faults (> 1/%d)"
                  name r.domains largest n (2 * r.domains))
            runs;
        let built_counts =
          List.filter_map
            (fun r ->
              if r.scheduler = Engine.Snapshot then
                Some r.stats.Engine.good_functions_built
              else None)
            runs
        in
        let built_uniform =
          match built_counts with
          | [] -> true
          | b :: rest -> List.for_all (( = ) b) rest
        in
        if not built_uniform then
          fail
            "%s: good_functions_built varies across snapshot domain counts"
            name;
        (* Cross-run gate on the deterministic work and memory metrics
           of the static@1 reference sweep: against its baseline record
           (same circuit and fault count), neither may grow >10%. *)
        let measured =
          Perf
            {
              circuit = name;
              faults = n;
              apply_steps = reference.stats.Engine.apply_steps;
              scratch_peak_nodes = reference.stats.Engine.scratch_peak_nodes;
            }
        in
        if !perf_gate && not !bless then begin
          match baseline_for measured with
          | Some (Perf b) ->
            let over now base = float_of_int now > 1.10 *. float_of_int base in
            if over reference.stats.Engine.apply_steps b.apply_steps then
              fail
                "%s: apply_steps regression — static@1 now %d, baseline \
                 %d (>10%% more work per sweep)"
                name reference.stats.Engine.apply_steps b.apply_steps;
            if over reference.stats.Engine.scratch_peak_nodes
                 b.scratch_peak_nodes
            then
              fail
                "%s: scratch-peak regression — static@1 now %d nodes, \
                 baseline %d (>10%% higher peak arena)"
                name reference.stats.Engine.scratch_peak_nodes
                b.scratch_peak_nodes
          | _ -> fail "%s" (missing_baseline measured)
        end;
        (* Kernel allocation gate: the apply kernel allocates nothing on
           the OCaml heap, so what the sequential reference allocates
           (outcome records, fault lists, engine set-up) stays far below
           one word per apply step.  A closure or tuple back in the
           per-step path costs several words per step and trips this. *)
        let words_per_step =
          reference.minor_words
          /. float_of_int (max 1 reference.stats.Engine.apply_steps)
        in
        if words_per_step > 1.0 then
          fail
            "%s: kernel allocation — static@1 allocated %.0f minor words \
             over %d apply steps (%.2f per step > 1.0)"
            name reference.minor_words reference.stats.Engine.apply_steps
            words_per_step;
        let best_speedup =
          List.fold_left
            (fun acc r ->
              if r.scheduler = Engine.Snapshot then
                Float.max acc (reference.seconds /. r.seconds)
              else acc)
            0.0 runs
        in
        note
          (Printf.sprintf
             "%s: best snapshot speedup %.2fx vs static@1; good functions \
              built once per sweep: %s; static@1 minor words per apply \
              step: %.3f"
             name best_speedup
             (if built_uniform then "yes" else "NO")
             words_per_step);
        rows := !rows @ [ (name, n, runs) ];
        (* Rewritten after every circuit, so a truncated run still
           leaves a well-formed matrix on disk; a blessed record lands
           as each circuit completes for the same reason. *)
        write_perf_json !perf_out !rows;
        bless_record measured)
    !perf_circuits;
  note
    (Printf.sprintf "%s written (hardware domains available here: %d)"
       !perf_out
       (Parallel.available_domains ()));
  if !perf_gate then
    match List.rev !failures with
    | [] -> note "perf gate: PASS"
    | fails ->
      List.iter
        (fun m -> Format.fprintf fmt "  GATE FAILURE: %s@." m)
        fails;
      Format.fprintf fmt "@.";
      exit 1

(* ------------------------------------------------------------------ *)

(* Hostile sweep: every collapsed fault under a per-attempt node budget
   AND wall-clock deadline tight enough that many analyses cannot finish
   exactly.  The point is the degradation ladder — exact on the first
   try, exact after the top-budget retry, exact under the rescue order,
   bounded estimate — and its terminal guarantee: zero crashed faults,
   a numeric answer for all. *)
let hostile_budget = ref 20_000
let hostile_deadline_ms = ref 50.0
let hostile_circuits = ref [ "c1908" ]
let hostile_reorder = ref true
let hostile_gate = ref false

let hostile () =
  section "hostile"
    "degradation ladder under per-fault budget + deadline caps";
  (* A non-positive deadline disables the wall-clock cap entirely.  The
     gate needs that: budget-only degradation is a deterministic node
     count and therefore machine-independent, where a wall-clock
     deadline would degrade more faults on slower runners. *)
  let deadline_ms =
    if !hostile_deadline_ms > 0.0 then Some !hostile_deadline_ms else None
  in
  let gate = !hostile_gate in
  if !bless && not gate then
    usage_error "hostile: -bless needs -hostile-gate (only the \
                 gated sweep is a baseline)";
  if gate && deadline_ms <> None then
    usage_error
      "hostile: -hostile-gate needs -hostile-deadline-ms 0 (a \
       wall-clock-capped degraded count is not comparable)";
  note
    (Printf.sprintf
       "first-attempt caps: %d BDD nodes, %s (4x on the one retry); \
        reorder rescue %s%s"
       !hostile_budget
       (match deadline_ms with
       | Some d -> Printf.sprintf "%.0f ms" d
       | None -> "no deadline")
       (if !hostile_reorder then "on" else "off")
       (if gate then "; gate mode" else ""));
  if gate then ignore (baseline_records ());
  let failures = ref [] in
  Format.fprintf fmt
    "  %-10s %7s %11s %9s %9s %9s %9s %9s %8s %11s %11s %8s@." "circuit"
    "faults" "exact@try0" "by-retry" "rescued" "bounded" "unbnded" "crashed"
    "sift(s)" "mean-width" "worst-width" "secs";
  List.iter
    (fun name ->
      let c = Bench_suite.find name in
      let faults =
        List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
      in
      let n = List.length faults in
      let domains = Parallel.available_domains () in
      (* A budgeted sweep restores the canonical arena before every
         fault, so without a deadline the degraded count is a function
         of the circuit and budget alone — comparable across machines
         and runs. *)
      let sweep ~reorder max_retries =
        Engine.sweep
          ~config:
            {
              Sweep_config.default with
              fault_budget = Some !hostile_budget;
              deadline_ms;
              max_retries;
              reorder;
              domains;
            }
          (Engine.create c) faults
      in
      let (first_try, _), _ = elapsed (fun () -> sweep ~reorder:false 0) in
      let (final, stats), dt =
        elapsed (fun () -> sweep ~reorder:!hostile_reorder 2)
      in
      let count p l = List.length (List.filter p l) in
      let exact0 = count Engine.is_exact first_try in
      let exact2 = count Engine.is_exact final in
      let rescued = stats.Engine.rescued_faults in
      let bounded =
        count (function Engine.Bounded _ -> true | _ -> false) final
      in
      let crashed =
        count (function Engine.Crashed _ -> true | _ -> false) final
      in
      let unbounded = n - exact2 - bounded - crashed in
      let widths =
        List.filter_map
          (fun o ->
            match o with
            | Engine.Bounded _ ->
              Option.map (fun (lo, up) -> up -. lo) (Engine.outcome_bounds o)
            | _ -> None)
          final
      in
      let mean_width =
        if widths = [] then 0.0
        else
          List.fold_left ( +. ) 0.0 widths /. float_of_int (List.length widths)
      in
      let worst_width = List.fold_left Float.max 0.0 widths in
      Format.fprintf fmt
        "  %-10s %7d %11d %9d %9d %9d %9d %9d %8.2f %11.6f %11.6f %8.2f@."
        name n exact0
        (max 0 (exact2 - exact0 - rescued))
        rescued bounded unbounded crashed stats.Engine.sift_seconds
        mean_width worst_width dt;
      note
        (Printf.sprintf "%s: every fault answered numerically: %s" name
           (if crashed = 0 && unbounded = 0 then "YES" else "NO"));
      if rescued > 0 then
        note
          (Printf.sprintf
             "%s: sifted-order retry rescued %d fault(s) the top-budget \
              retry had given up on (arena %d -> %d nodes)"
             name rescued stats.Engine.sift_nodes_before
             stats.Engine.sift_nodes_after);
      if gate then begin
        (* Cross-run gate, and only then a blessed record: ungated runs
           are non-deterministic stress displays and never baselines.
           The record key holds the budget, so a run under another
           budget never compares against this one's count. *)
        let measured =
          Hostile
            {
              circuit = name;
              faults = n;
              budget = !hostile_budget;
              degraded = n - exact2;
            }
        in
        (if not !bless then
           match baseline_for measured with
           | Some (Hostile b) when n - exact2 > b.degraded ->
             failures :=
               Printf.sprintf
                 "%s: degraded-count regression — %d of %d faults \
                  degraded, baseline %d"
                 name (n - exact2) n b.degraded
               :: !failures
           | Some (Hostile b) ->
             note
               (Printf.sprintf
                  "%s: degraded gate: %d degraded <= baseline %d — PASS"
                  name (n - exact2) b.degraded)
           | _ -> failures := missing_baseline measured :: !failures);
        bless_record measured
      end)
    !hostile_circuits;
  if gate then
    match List.rev !failures with
    | [] -> note "hostile gate: PASS"
    | fails ->
      List.iter (fun m -> Format.fprintf fmt "  GATE FAILURE: %s@." m) fails;
      Format.fprintf fmt "@.";
      exit 1

(* ------------------------------------------------------------------ *)

let artifacts =
  [
    ("table1", table1);
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("obs-po", obs_po);
    ("scoap", scoap);
    ("approx-vs-exact", approx_vs_exact);
    ("collapse", collapse);
    ("compaction", compaction);
    ("multi", multi);
    ("catapult", catapult);
    ("dft", dft);
    ("transition", transition);
    ("ablation-order", ablation_order);
    ("ablation-decomp", ablation_decomp);
    ("micro", micro);
  ]

(* Topology-oracle calibration: the static per-cone blowup prediction
   ([Topology.predicted_peak], computed before any BDD exists) against
   the measured scratch peak of an exact sequential sweep, across the
   whole suite.  Gate mode compares the scratch rank correlation with
   the [Topo] baseline record for the same sample. *)
let topo_gate = ref false
let topo_sample = ref 3

let topo_bench () =
  section "topo" "topology oracle: static blowup prediction calibration";
  let every = max 1 !topo_sample in
  if !bless && not !topo_gate then
    usage_error "topo: -bless needs -topo-gate (only a gated run is a \
                 baseline)";
  if !topo_gate then ignore (baseline_records ());
  let sample l = List.filteri (fun i _ -> i mod every = 0) l in
  note
    (Printf.sprintf "every %dth collapsed fault, exact sequential sweeps"
       every);
  Format.fprintf fmt "  %-10s %-20s %-10s %5s %5s %12s %12s %14s@."
    "circuit" "class" "winner" "cutw" "conf" "predicted" "scratch"
    "apply-steps";
  let rows =
    List.map
      (fun name ->
        let c = Bench_suite.find name in
        let topo = Topology.analyze c in
        let faults =
          sample
            (List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c))
        in
        let _, stats = Engine.sweep (Engine.create c) faults in
        let predicted = Topology.predicted_peak topo in
        Format.fprintf fmt "  %-10s %-20s %-10s %5d %5b %12.0f %12d %14d@."
          name
          (Topology.class_name topo.Topology.klass)
          (Ordering.name topo.Topology.winner)
          topo.Topology.est_cutwidth topo.Topology.confident predicted
          stats.Engine.scratch_peak_nodes stats.Engine.apply_steps;
        (predicted, stats))
      Bench_suite.names
  in
  let rho_of measure =
    Correlation.spearman
      (List.map (fun (p, s) -> (p, float_of_int (measure s))) rows)
  in
  let rho_scratch = rho_of (fun s -> s.Engine.scratch_peak_nodes) in
  let rho_apply = rho_of (fun s -> s.Engine.apply_steps) in
  note
    (Printf.sprintf
       "rank correlation, predicted peak vs measured: scratch %.3f, \
        apply steps %.3f (%d circuits)"
       rho_scratch rho_apply (List.length rows));
  if !topo_gate then begin
    let measured = Topo { sample = every; rho_scratch } in
    let failures = ref [] in
    if rho_scratch < 0.6 then
      failures :=
        Printf.sprintf "scratch rank correlation %.3f below the 0.6 floor"
          rho_scratch
        :: !failures;
    (if not !bless then
       match baseline_for measured with
       | Some (Topo b) when rho_scratch < b.rho_scratch -. 0.05 ->
         failures :=
           Printf.sprintf
             "scratch rank correlation regression: %.3f vs baseline %.3f"
             rho_scratch b.rho_scratch
           :: !failures
       | Some (Topo b) ->
         note
           (Printf.sprintf
              "correlation gate: %.3f >= baseline %.3f - 0.05 — PASS"
              rho_scratch b.rho_scratch)
       | _ -> failures := missing_baseline measured :: !failures);
    bless_record measured;
    match List.rev !failures with
    | [] -> note "topo gate: PASS"
    | fails ->
      List.iter (fun m -> Format.fprintf fmt "  GATE FAILURE: %s@." m) fails;
      Format.fprintf fmt "@.";
      exit 1
  end

(* The linter's pitch is that topology is nearly free: time the static
   pass (all rules, no exact cross-check) against the same pass with
   every redundancy claim countersigned by the engine, per circuit. *)
let lint_bench () =
  section "lint" "static testability lint: cost of the static pass";
  Format.fprintf fmt
    "  %-10s %8s %8s %12s %12s@." "circuit" "findings" "claims"
    "static (s)" "verified (s)";
  List.iter
    (fun c ->
      let static_cfg = { Lint.default_config with Lint.verify = false } in
      let diags, static_t =
        elapsed (fun () -> Lint.run ~config:static_cfg c)
      in
      let claims =
        List.fold_left
          (fun n d -> n + List.length d.Diagnostic.claims)
          0 diags
      in
      let verified_t =
        if claims = 0 then static_t
        else snd (elapsed (fun () -> Lint.run c))
      in
      Format.fprintf fmt "  %-10s %8d %8d %12.4f %12.4f@."
        c.Circuit.title (List.length diags) claims static_t verified_t)
    (Bench_suite.all ());
  note
    "static column: all thirteen rules including the budgeted BDD tier; \
     verified column adds the exact engine countersigning every \
     redundancy claim"

(* ------------------------------------------------------------------ *)

(* Serve load generator: an in-process dpa-serve daemon hammered by
   concurrent client threads over a Unix socket with a mixed
   lint/analyze workload.  Reports requests/s and latency percentiles.
   Its gate is within-run and always on: a dropped, duplicated or
   errored stream exits 1.  Wall-clock latencies are never a baseline,
   so the lane writes none. *)
let serve_clients = ref 8
let serve_requests = ref 240
let serve_circuits = ref [ "c432"; "c499"; "c880" ]
let serve_workers = ref 2

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(min (n - 1) (p * n / 100))

let serve_bench () =
  section "serve" "resident daemon under concurrent mixed load";
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dpa-bench-%d.sock" (Unix.getpid ()))
  in
  let clients = max 1 !serve_clients in
  let total = max clients !serve_requests in
  note
    (Printf.sprintf
       "%d requests (1 lint : 2 analyze) from %d client threads, %d \
        worker(s), circuits %s"
       total clients !serve_workers
       (String.concat "," !serve_circuits));
  let server =
    Server.start
      {
        (Server.default_config ~socket:(Server.Unix_socket sock)) with
        Server.workers = !serve_workers;
      }
  in
  (* Expected per-circuit fault counts, for dropped/duplicate checks. *)
  let expected = Hashtbl.create 8 in
  List.iter
    (fun name ->
      let c = Bench_suite.find name in
      Hashtbl.replace expected name
        (List.length (Sa_fault.collapsed_faults c)))
    !serve_circuits;
  let circuits = Array.of_list !serve_circuits in
  let latencies = Array.make total 0.0 in
  let busy = Atomic.make 0 and errors = Atomic.make 0 in
  let stream_ok = Atomic.make true in
  let run_client k =
    let cl = Client.connect_unix_retry sock in
    let i = ref k in
    while !i < total do
      let r = !i in
      let name = circuits.(r mod Array.length circuits) in
      let id = Printf.sprintf "q%d" r in
      let t0 = Unix.gettimeofday () in
      (if r mod 3 = 0 then begin
         Client.send cl (Protocol.lint_request ~id (Protocol.Named name));
         let rec drain () =
           match Client.recv_response cl with
           | Ok (Protocol.Done _) -> ()
           | Ok (Protocol.Busy _) -> Atomic.incr busy
           | Ok (Protocol.Error_response _) | Error _ -> Atomic.incr errors
           | Ok _ -> drain ()
         in
         drain ()
       end
       else
         match Client.analyze cl ~id (Protocol.Named name) with
         | Ok { Client.final = Protocol.Done _; outcomes; _ } ->
           (* Every fault index exactly once: nothing dropped, nothing
              duplicated, even under coalescing and cache churn. *)
           let n = Hashtbl.find expected name in
           let seen = Array.make n 0 in
           List.iter
             (fun (j, _) ->
               if j >= 0 && j < n then seen.(j) <- seen.(j) + 1)
             outcomes;
           if not (Array.for_all (fun c -> c = 1) seen) then
             Atomic.set stream_ok false
         | Ok { Client.final = Protocol.Busy _; _ } -> Atomic.incr busy
         | Ok _ | Error _ -> Atomic.incr errors);
      latencies.(r) <- Unix.gettimeofday () -. t0;
      i := !i + clients
    done;
    Client.close cl
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init clients (fun k -> Thread.create run_client k) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  Server.stop server;
  let sorted = Array.copy latencies in
  Array.sort compare sorted;
  let p50 = percentile sorted 50 and p99 = percentile sorted 99 in
  let busy = Atomic.get busy and errors = Atomic.get errors in
  let ok = Atomic.get stream_ok && errors = 0 in
  let rps = float_of_int total /. wall in
  Format.fprintf fmt
    "  %d requests in %.2fs: %.1f req/s, latency p50 %.1f ms / p99 %.1f \
     ms, %d busy, %d error(s), streams %s@."
    total wall rps (1000.0 *. p50) (1000.0 *. p99) busy errors
    (if ok then "intact" else "CORRUPTED");
  if not ok then begin
    note "serve: FAIL (dropped, duplicated or errored results)";
    exit 1
  end

(* [perf], [hostile], [lint], [serve] and [topo] are dispatchable by
   name but deliberately not part of [all]: timing measurements and
   stress experiments, not paper artifacts. *)
let commands =
  artifacts
  @ [
      ("perf", perf); ("hostile", hostile); ("lint", lint_bench);
      ("serve", serve_bench); ("topo", topo_bench);
    ]

let usage () =
  Format.fprintf fmt
    "usage: main.exe [-sample N] [-seed N] [-perf-circuits A,B,..] \
     [-perf-domains 1,2,..] [-perf-out FILE] [-perf-gate] \
     [-hostile-budget N] [-hostile-deadline-ms F] \
     [-hostile-circuits A,B,..] [-hostile-reorder auto|off] \
     [-hostile-gate] [-serve-clients N] [-serve-requests N] \
     [-serve-circuits A,B,..] [-serve-workers N] [-topo-gate] \
     [-topo-sample N] [-bless] \
     [all | perf | hostile | lint | serve | topo | %s]...@."
    (String.concat " | " (List.map fst artifacts))

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | "-sample" :: n :: rest ->
      config :=
        { !config with Experiments.bridge_sample = int_of_string n };
      parse acc rest
    | "-seed" :: n :: rest ->
      config := { !config with Experiments.seed = int_of_string n };
      parse acc rest
    | "-perf-circuits" :: names :: rest ->
      perf_circuits := String.split_on_char ',' names;
      parse acc rest
    | "-perf-domains" :: counts :: rest ->
      perf_domain_counts :=
        String.split_on_char ',' counts |> List.map int_of_string;
      parse acc rest
    | "-perf-out" :: path :: rest ->
      perf_out := path;
      parse acc rest
    | "-perf-gate" :: rest ->
      perf_gate := true;
      parse acc rest
    | "-hostile-budget" :: n :: rest ->
      hostile_budget := int_of_string n;
      parse acc rest
    | "-hostile-deadline-ms" :: f :: rest ->
      hostile_deadline_ms := float_of_string f;
      parse acc rest
    | "-hostile-circuits" :: names :: rest ->
      hostile_circuits := String.split_on_char ',' names;
      parse acc rest
    | "-hostile-reorder" :: mode :: rest ->
      (match mode with
      | "auto" | "on" -> hostile_reorder := true
      | "off" -> hostile_reorder := false
      | s ->
        Format.eprintf "hostile: unknown reorder mode %S (auto|off)@." s;
        exit 2);
      parse acc rest
    | "-hostile-gate" :: rest ->
      hostile_gate := true;
      parse acc rest
    | "-serve-clients" :: n :: rest ->
      serve_clients := int_of_string n;
      parse acc rest
    | "-serve-requests" :: n :: rest ->
      serve_requests := int_of_string n;
      parse acc rest
    | "-serve-circuits" :: names :: rest ->
      serve_circuits := String.split_on_char ',' names;
      parse acc rest
    | "-serve-workers" :: n :: rest ->
      serve_workers := int_of_string n;
      parse acc rest
    | "-topo-gate" :: rest ->
      topo_gate := true;
      parse acc rest
    | "-topo-sample" :: n :: rest ->
      topo_sample := int_of_string n;
      parse acc rest
    | "-bless" :: rest ->
      bless := true;
      parse acc rest
    | "all" :: rest -> parse (acc @ List.map fst artifacts) rest
    | name :: rest -> parse (acc @ [ name ]) rest
    | [] -> acc
  in
  let requested = parse [] args in
  let requested =
    if requested = [] then List.map fst artifacts else requested
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name commands with
      | Some run -> run ()
      | None ->
        Format.fprintf fmt "unknown artifact %S@." name;
        usage ();
        exit 2)
    requested;
  Format.fprintf fmt "@.total wall time: %.1fs@."
    (Unix.gettimeofday () -. t0)
