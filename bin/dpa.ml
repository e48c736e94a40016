(* dpa — Difference Propagation Analyzer command-line tool.

     dpa circuits                          list the benchmark suite
     dpa stats c432                        netlist statistics
     dpa faults c95                        fault-universe summary
     dpa analyze c17 --fault G3:0          one stuck-at fault in detail
     dpa analyze c17 --bridge G10,G19:and  one bridging fault in detail
     dpa lint c432 --format sarif          static testability diagnostics
     dpa profile c95                       detectability profile
     dpa atpg alu74181                     PODEM test generation
     dpa analyze file.bench --fault n1:1   analyse a user netlist *)

open Cmdliner

let load_circuit spec =
  if Sys.file_exists spec then (
    (* Malformed netlists are user input, not internal errors: a
       one-line file:line: diagnostic, never an exception backtrace. *)
    try Bench_format.parse_file spec with
    | Bench_format.Parse_error (span, msg) ->
      Printf.eprintf "%s:%d:%d: %s\n" spec span.Bench_format.line
        span.Bench_format.start_col msg;
      exit 2
    | Circuit.Malformed msg | Seq_circuit.Malformed msg ->
      Printf.eprintf "%s: %s\n" spec msg;
      exit 2)
  else
    try Bench_suite.find spec
    with Not_found ->
      Printf.eprintf
        "unknown circuit %S (not a benchmark name or a readable file)\n" spec;
      exit 2

let circuit_arg =
  let doc = "Benchmark name (see $(b,dpa circuits)) or .bench file path." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

(* ------------------------------------------------------------------ *)

let circuits_cmd =
  let run () =
    List.iter
      (fun name ->
        let c = Bench_suite.find name in
        Format.printf "%a@." Circuit.pp_summary c)
      Bench_suite.names
  in
  Cmd.v (Cmd.info "circuits" ~doc:"List the built-in benchmark suite")
    Term.(const run $ const ())

let stats_cmd =
  let run spec =
    let c = load_circuit spec in
    Format.printf "%a@." Stats.pp (Stats.compute c);
    let levels = Circuit.levels c in
    let hist = Hashtbl.create 16 in
    Array.iter
      (fun l ->
        Hashtbl.replace hist l
          (1 + Option.value (Hashtbl.find_opt hist l) ~default:0))
      levels;
    Format.printf "nets per level:@.";
    Hashtbl.fold (fun l n acc -> (l, n) :: acc) hist []
    |> List.sort Stdlib.compare
    |> List.iter (fun (l, n) -> Format.printf "  level %2d: %d@." l n)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Netlist statistics")
    Term.(const run $ circuit_arg)

let topo_cmd =
  let json_arg =
    let doc = "Emit the analysis as a single JSON object." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let emit_order_arg =
    let doc =
      "Print only the synthesized variable order (level to input \
       position, one integer per line) — pipe into tooling or feed \
       back as an explicit order."
    in
    Arg.(value & flag & info [ "emit-order" ] ~doc)
  in
  let run spec json emit_order =
    let c = load_circuit spec in
    let t = Topology.analyze c in
    if emit_order then
      Array.iter
        (fun p -> print_endline (string_of_int p))
        t.Topology.order
    else if json then print_endline (Topology.to_json t)
    else Format.printf "%a@." Topology.pp t
  in
  Cmd.v
    (Cmd.info "topo"
       ~doc:
         "Static topology oracle: circuit class, per-cone BDD blowup \
          prediction, and the synthesized variable order — all before \
          any BDD exists")
    Term.(const run $ circuit_arg $ json_arg $ emit_order_arg)

let faults_cmd =
  let run spec =
    let c = load_circuit spec in
    let checkpoints = Sa_fault.checkpoints c in
    let uncollapsed = Sa_fault.checkpoint_faults c in
    let collapsed = Sa_fault.collapsed_faults c in
    Format.printf "checkpoints: %d (%d PIs + %d fanout branches)@."
      (List.length checkpoints) (Circuit.num_inputs c)
      (List.length checkpoints - Circuit.num_inputs c);
    Format.printf "checkpoint faults: %d, collapsed classes: %d@."
      (List.length uncollapsed) (List.length collapsed);
    if Circuit.num_gates c <= 200 then
      Format.printf "potentially detectable NFBFs: %d@." (Bridge.count c)
    else begin
      let faults, stats = Bridge.sample ~seed:42 ~size:100 c in
      Format.printf
        "NFBF sample: %d faults from %d proposals (max wire distance %.1f)@."
        (List.length faults) stats.Bridge.proposals stats.Bridge.max_distance
    end
  in
  Cmd.v (Cmd.info "faults" ~doc:"Fault-universe summary")
    Term.(const run $ circuit_arg)

(* ------------------------------------------------------------------ *)

let net_of_name c name =
  match Circuit.index_of_name c name with
  | Some g -> g
  | None ->
    Printf.eprintf "no net named %S\n" name;
    exit 2

let parse_stuck c spec =
  match String.split_on_char ':' spec with
  | [ name; ("0" | "1") as v ] ->
    Fault.Stuck
      { Sa_fault.line = Sa_fault.Stem (net_of_name c name); value = v = "1" }
  | _ ->
    Printf.eprintf "expected NET:VALUE with VALUE 0|1, got %S\n" spec;
    exit 2

let parse_bridge c spec =
  match String.split_on_char ':' spec with
  | [ pair; kind ] ->
    (match
       (String.split_on_char ',' pair, String.lowercase_ascii kind)
     with
    | [ na; nb ], "and" ->
      Fault.Bridged
        (Bridge.make (net_of_name c na) (net_of_name c nb) Bridge.Wired_and)
    | [ na; nb ], "or" ->
      Fault.Bridged
        (Bridge.make (net_of_name c na) (net_of_name c nb) Bridge.Wired_or)
    | _ ->
      Printf.eprintf "expected NETA,NETB:KIND with KIND and|or, got %S\n" spec;
      exit 2)
  | _ ->
    Printf.eprintf "expected NETA,NETB:KIND, got %S\n" spec;
    exit 2

(* ------------------------------------------------------------------ *)
(* Sweep settings.  Each sweep flag is declared once, as a term for the
   update it makes to a [Sweep_config.t], its default read from the
   command's base config; a command lists the flags it offers and gets
   back one config, checked by the same rules the engine and the wire
   protocol apply. *)

let sweep_opt kind names ~docv ~doc ~default update =
  Term.(const update $ Arg.(value & opt kind default & info names ~docv ~doc))

let fault_budget_flag (d : Sweep_config.t) =
  sweep_opt
    Arg.(some int)
    [ "fault-budget" ] ~docv:"NODES" ~default:d.fault_budget
    ~doc:
      "Cap the analysis at $(docv) freshly allocated BDD nodes per \
       attempt; a blown budget degrades the fault instead of growing the \
       arena unboundedly.  A budgeted sweep restores the canonical BDD \
       arena before every fault, so which faults degrade does not depend \
       on scheduling, the domain count or where a previous run was \
       killed."
    (fun fault_budget c -> { c with Sweep_config.fault_budget })

let deadline_ms_flag (d : Sweep_config.t) =
  sweep_opt
    Arg.(some float)
    [ "deadline-ms" ] ~docv:"MS" ~default:d.deadline_ms
    ~doc:
      "Cap each analysis attempt at $(docv) wall-clock milliseconds; an \
       expired deadline degrades the fault instead of wedging the sweep."
    (fun deadline_ms c -> { c with Sweep_config.deadline_ms })

let max_retries_flag (d : Sweep_config.t) =
  sweep_opt Arg.int [ "max-retries" ] ~docv:"N" ~default:d.max_retries
    ~doc:
      "Height of the degradation ladder: a failed analysis is re-run \
       once, on a pristine build of the good functions, with the budget \
       and deadline multiplied by 2^$(docv) (no re-run when 0).  The \
       reorder rescue uses the same scaled budget and deadline."
    (fun max_retries c -> { c with Sweep_config.max_retries })

let reorder_flag (d : Sweep_config.t) =
  sweep_opt
    Arg.(enum [ ("auto", true); ("off", false) ])
    [ "reorder" ] ~docv:"MODE" ~default:d.reorder
    ~doc:
      "Reorder-rescue rung of the degradation ladder: $(b,auto) (the \
       default) retries a fault that failed its top-budget retry once \
       more, on a pristine build of the good functions under a sifted \
       variable order, before it falls back to a bounded estimate.  \
       $(b,off) disables the rung (the pre-rescue three-stage ladder).  \
       Only consulted when $(b,--fault-budget) or $(b,--deadline-ms) \
       caps the analysis — an uncapped sweep cannot degrade, so there is \
       nothing to rescue."
    (fun reorder c -> { c with Sweep_config.reorder })

let reorder_growth_flag (d : Sweep_config.t) =
  sweep_opt Arg.float [ "reorder-growth" ] ~docv:"FACTOR"
    ~default:d.reorder_growth
    ~doc:
      "Growth cap for rescue-order sifting: a sift step that grows the \
       live arena past this factor of its starting size is undone.  Must \
       be >= 1.0."
    (fun reorder_growth c -> { c with Sweep_config.reorder_growth })

let no_bounds_flag (_ : Sweep_config.t) =
  let doc =
    "Leave budget- and deadline-degraded faults as raw degradations \
     instead of estimating bounded detectability for them (and exit \
     nonzero when any fault degrades)."
  in
  Term.(
    const (fun off c ->
        if off then { c with Sweep_config.bounds = false } else c)
    $ Arg.(value & flag & info [ "no-bounds" ] ~doc))

let samples_flag (d : Sweep_config.t) =
  sweep_opt Arg.int [ "samples" ] ~docv:"N" ~default:d.bound_samples
    ~doc:
      "Random vectors per bounded-detectability estimate (rounded up to \
       whole 64-pattern words)."
    (fun bound_samples c -> { c with Sweep_config.bound_samples })

let domains_flag (d : Sweep_config.t) =
  sweep_opt Arg.int [ "domains"; "j" ] ~docv:"N" ~default:d.domains
    ~doc:
      "Worker domains per sweep, which also pick the sweep.  One domain \
       analyses the faults one after another on a single engine, in \
       cone-local order (by lowest fault-site net; results keep input \
       order, a $(b,--checkpoint) journal is written in visit order).  \
       More build the good functions once, seal the arena, and have every \
       domain analyse cone-grouped batches on a read-only fork of it, \
       several batches per domain, so that a domain that runs dry takes \
       over work instead of idling.  Results are identical at any count."
    (fun domains c -> { c with Sweep_config.domains })

(* The command's sweep config: [default] with the given flags applied.
   An invalid combination is a usage error (exit 2), reported before
   any work starts. *)
let sweep_config ~default flags =
  let update =
    List.fold_left
      (fun acc flag -> Term.(const (fun f g c -> g (f c)) $ acc $ flag default))
      (Term.const Fun.id) flags
  in
  let checked update =
    match Sweep_config.validate (update default) with
    | Ok cfg -> cfg
    | Error msg ->
      Printf.eprintf "invalid sweep setting: %s\n" msg;
      exit 2
  in
  Term.(const checked $ update)

(* Sweep mode: every collapsed stuck-at fault, an outcome for each,
   optionally journaled for kill-and-resume.  Exit code 0 means every
   fault got a numeric answer (exact or bounded); 1 means some fault
   crashed or was left degraded without bounds; 2 is a usage or input
   error (including a stale journal). *)
let run_sweep c cfg ~checkpoint ~resume ~json =
  let faults =
    List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
  in
  let n = List.length faults in
  let faults_arr = Array.of_list faults in
  (* The header digest covers the outcome-affecting settings as well as
     the circuit and fault list: a journal computed under other options
     is stale, not a prefix of this sweep. *)
  let digest =
    Digest.to_hex
      (Digest.string
         (Journal.digest c faults ^ "|" ^ Sweep_config.fingerprint cfg))
  in
  let table, sink =
    match checkpoint with
    | None -> (Hashtbl.create 1, None)
    | Some path ->
      (* Two writers interleaving appends would corrupt the journal in
         ways load cannot distinguish from a torn tail, so the file is
         guarded by an exclusive lock.  A dead holder's lock is stale
         and broken transparently — only a live second writer refuses. *)
      (match Journal.acquire_writer_lock ~path () with
      | Error reason ->
        Printf.eprintf "%s: %s\n" path reason;
        exit 2
      | Ok lock -> at_exit (fun () -> Journal.release_writer_lock lock));
      if resume && Sys.file_exists path then begin
        match Journal.load ~path ~digest ~faults:faults_arr with
        | Ok table ->
          Format.printf "resuming: %d of %d outcomes journaled in %s@."
            (Hashtbl.length table) n path;
          (table, Some (Journal.reopen ~path ()))
        | Error msg ->
          Printf.eprintf "%s: %s\n" path msg;
          exit 2
      end
      else (Hashtbl.create 1, Some (Journal.create ~path ~digest ~faults:n ()))
  in
  (* A polite kill (SIGINT/SIGTERM) flushes the pending fsync batch
     before dying, so up to sync_every freshly computed outcomes are
     not lost to an unlucky ^C.  [sync_now] is lock-free, hence safe
     from a handler that may have interrupted a mid-append worker; the
     process then re-kills itself under the default disposition so the
     exit status still reports the signal.  (The writer lock is left
     for the next run to break as stale — its holder pid is dead.) *)
  Option.iter
    (fun s ->
      let flush_and_die signal =
        Journal.sync_now s;
        Sys.set_signal signal Sys.Signal_default;
        Unix.kill (Unix.getpid ()) signal
      in
      Sys.set_signal Sys.sigint (Sys.Signal_handle flush_and_die);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle flush_and_die))
    sink;
  let journal = Journal.engine_journal ?sink table in
  let outcomes, _ =
    Engine.sweep ~config:cfg ~journal (Engine.create c) faults
  in
  Option.iter Journal.close sink;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Journal.header_line ~digest ~faults:n);
      output_char oc '\n';
      List.iteri
        (fun i o ->
          output_string oc (Journal.outcome_line i o);
          output_char oc '\n')
        outcomes;
      close_out oc)
    json;
  let count p = List.length (List.filter p outcomes) in
  let exact = count Engine.is_exact in
  let bounded =
    count (function Engine.Bounded _ -> true | _ -> false)
  in
  let unbounded =
    count (function
      | Engine.Budget_exceeded _ | Engine.Deadline_exceeded _ -> true
      | _ -> false)
  in
  let crashed = count (function Engine.Crashed _ -> true | _ -> false) in
  let rescued =
    count (function
      | Engine.Exact r -> r.Engine.rescued_by_reorder
      | _ -> false)
  in
  Format.printf
    "swept %d collapsed stuck-at faults: %d exact, %d bounded, %d degraded \
     without bounds, %d crashed@."
    n exact bounded unbounded crashed;
  if rescued > 0 then
    Format.printf
      "  (%d of the exact answers came from the reorder-rescue rung: exact \
       only after the sifted-order retry)@."
      rescued;
  if bounded > 0 then begin
    let widths =
      List.filter_map
        (fun o ->
          match o with
          | Engine.Bounded _ ->
            Option.map (fun (lo, up) -> up -. lo) (Engine.outcome_bounds o)
          | _ -> None)
        outcomes
    in
    let worst = List.fold_left Float.max 0.0 widths in
    let mean =
      List.fold_left ( +. ) 0.0 widths /. float_of_int (List.length widths)
    in
    Format.printf "bound widths: mean %.6f, worst %.6f@." mean worst
  end;
  List.iteri
    (fun i o ->
      if not (Engine.is_exact o) then
        Format.printf "  [%d] %s@." i (Engine.outcome_to_string c o))
    outcomes;
  if crashed > 0 || unbounded > 0 then exit 1 else exit 0

let run_single c fault ~cubes cfg =
  Format.printf "fault: %s@." (Fault.to_string c fault);
  let engine = Engine.create c in
  let r =
    match fst (Engine.sweep ~config:cfg engine [ fault ]) with
    | [ Engine.Exact r ] -> r
    | [ Engine.Bounded { lower; upper; syndrome_bound; samples; reason; _ } ]
      ->
      (* Degraded but numerically answered: that is a success. *)
      Format.printf
        "detectability in [%.6f, %.6f] (Wilson interval, %d random \
         vectors)@."
        lower
        (Float.min upper syndrome_bound)
        samples;
      Format.printf "syndrome upper bound: %.6f@." syndrome_bound;
      Format.printf "exact analysis degraded: %s@."
        (Engine.degrade_reason_to_string reason);
      exit 0
    | [ (Engine.Budget_exceeded _ | Engine.Deadline_exceeded _) as o ] ->
      let ladder =
        match cfg.Sweep_config.max_retries with
        | 0 -> "without a retry"
        | r -> Printf.sprintf "after one retry at %dx the budget" (1 lsl r)
      in
      Format.printf "DEGRADED %s — %s@." ladder (Engine.outcome_to_string c o);
      exit 1
    | [ (Engine.Crashed _ as o) ] ->
      Format.printf "CRASHED — %s@." (Engine.outcome_to_string c o);
      exit 1
    | _ -> assert false
  in
  Format.printf "detectability: %.6f (%g test vectors of 2^%d)@."
    r.Engine.detectability r.Engine.test_count (Circuit.num_inputs c);
  if r.Engine.rescued_by_reorder then
    Format.printf
      "rescued by reordering: the heuristic-order attempts all degraded; \
       this exact answer needed the sifted variable order@.";
  Format.printf "upper bound: %.6f  adherence: %s@." r.Engine.upper_bound
    (match r.Engine.adherence with
    | Some a -> Printf.sprintf "%.6f" a
    | None -> "n/a");
  Format.printf "POs fed: %d  POs observing: %d@." r.Engine.pos_fed
    r.Engine.pos_observed;
  (match r.Engine.wired_support with
  | Some n ->
    Format.printf "wired-function support: %d variable(s)%s@." n
      (if n = 0 then " — degenerates to stuck-at behaviour" else "")
  | None -> ());
  if r.Engine.detectable then begin
    Format.printf "test cubes (input=value, unlisted are don't-care):@.";
    List.iter
      (fun cube ->
        let literal (pos, value) =
          Printf.sprintf "%s=%d"
            (Circuit.gate c c.Circuit.inputs.(pos)).Circuit.name
            (Bool.to_int value)
        in
        Format.printf "  %s@." (String.concat " " (List.map literal cube)))
      (Engine.test_cubes ~limit:cubes engine fault)
  end
  else Format.printf "fault is undetectable (redundant)@."

let analyze_cmd =
  let stuck =
    let doc = "Stuck-at fault as NET:VALUE (e.g. G10:0)." in
    Arg.(value & opt (some string) None & info [ "fault" ] ~docv:"SPEC" ~doc)
  in
  let bridge =
    let doc = "Bridging fault as NETA,NETB:KIND with KIND and|or." in
    Arg.(value & opt (some string) None & info [ "bridge" ] ~docv:"SPEC" ~doc)
  in
  let all =
    let doc =
      "Sweep every collapsed stuck-at fault instead of analysing one \
       fault.  Implied by $(b,--checkpoint), $(b,--resume) and \
       $(b,--json)."
    in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let cubes =
    let doc = "Print up to $(docv) test cubes." in
    Arg.(value & opt int 8 & info [ "cubes" ] ~docv:"N" ~doc)
  in
  let checkpoint =
    let doc =
      "Append every outcome to the JSON-lines journal $(docv) as the \
       sweep runs (fsync'd in batches), so a killed sweep can continue \
       with $(b,--resume).  Journaling does not change how the sweep \
       runs: its outcomes are byte-identical to an unjournaled sweep's."
    in
    Arg.(
      value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let resume =
    let doc =
      "Reuse outcomes journaled in the $(b,--checkpoint) file by an \
       earlier (killed) run instead of recomputing them.  A journal \
       written for a different circuit or fault list, or under different \
       outcome-affecting sweep settings, is rejected.  The \
       completed sweep's report is byte-identical to an uninterrupted \
       run."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let json =
    let doc =
      "Write the final outcome of every fault to $(docv) in the journal's \
       JSON-lines format, in fault-index order."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let run spec stuck bridge all cubes cfg checkpoint resume json =
    let c = load_circuit spec in
    let sweep_mode =
      all || checkpoint <> None || resume || json <> None
    in
    if resume && checkpoint = None then begin
      Printf.eprintf "--resume needs --checkpoint FILE to name the journal\n";
      exit 2
    end;
    if sweep_mode then begin
      if stuck <> None || bridge <> None then begin
        Printf.eprintf
          "--all sweeps the collapsed stuck-at faults; drop --fault/--bridge\n";
        exit 2
      end;
      run_sweep c cfg ~checkpoint ~resume ~json
    end
    else
      let fault =
        match (stuck, bridge) with
        | Some s, None -> parse_stuck c s
        | None, Some b -> parse_bridge c b
        | Some _, Some _ | None, None ->
          Printf.eprintf "give exactly one of --fault or --bridge (or --all)\n";
          exit 2
      in
      run_single c fault ~cubes cfg
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Exact analysis of a single fault, or a deadline-supervised sweep \
          of every collapsed fault with checkpoint/resume")
    Term.(
      const run $ circuit_arg $ stuck $ bridge $ all $ cubes
      $ sweep_config ~default:Sweep_config.default
          [
            fault_budget_flag;
            deadline_ms_flag;
            max_retries_flag;
            reorder_flag;
            reorder_growth_flag;
            no_bounds_flag;
            samples_flag;
            domains_flag;
          ]
      $ checkpoint $ resume $ json)

let profile_cmd =
  let bins =
    let doc = "Histogram bins." in
    Arg.(value & opt int 10 & info [ "bins" ] ~docv:"N" ~doc)
  in
  let mem_profile =
    let doc =
      "Record birth and death of every scratch BDD node on the logical \
       apply-step clock and print the lifetime histogram after the sweep.  \
       Forces one domain, so the histogram covers the whole fault set on \
       one arena; the output is deterministic (no wall-clock data)."
    in
    Arg.(value & flag & info [ "mem-profile" ] ~doc)
  in
  let run spec bins cfg mem_profile =
    let c = load_circuit spec in
    let cfg =
      if mem_profile then { cfg with Sweep_config.domains = 1 } else cfg
    in
    let engine = Engine.create ~mem_profile c in
    let outcomes, stats =
      Engine.sweep ~config:cfg engine
        (List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c))
    in
    Format.printf
      "sweep: %s scheduler, %d domain%s (%d in hardware)@.\
       good functions built: %d@.snapshot build: %.3fs (symbolic build \
       %.3fs)@.per-domain scratch arena peak: %d nodes@.analysis: %.3fs \
       wall, %.3fs cpu across domains@."
      (Engine.scheduler_to_string stats.Engine.scheduler)
      stats.Engine.domains
      (if stats.Engine.domains = 1 then "" else "s")
      stats.Engine.hardware_domains stats.Engine.good_functions_built
      stats.Engine.snapshot_seconds stats.Engine.build_seconds
      stats.Engine.scratch_peak_nodes stats.Engine.analysis_wall_seconds
      stats.Engine.analysis_cpu_seconds;
    if stats.Engine.rescued_faults > 0 then
      Format.printf
        "reorder rescues: %d fault(s) exact only under the sifted order \
         (sift %.3fs, arena %d -> %d nodes)@."
        stats.Engine.rescued_faults stats.Engine.sift_seconds
        stats.Engine.sift_nodes_before stats.Engine.sift_nodes_after;
    if stats.Engine.epoch_resets > 0 then
      Format.printf
        "epochs: %d region reset(s), %d node(s) tenured, gc %.3fs across \
         %d collection(s)@."
        stats.Engine.epoch_resets stats.Engine.tenured_nodes
        stats.Engine.gc_seconds stats.Engine.gc_collections;
    if stats.Engine.warm_cache_hits > 0 then
      Format.printf "warm op-cache hits across forks: %d@."
        stats.Engine.warm_cache_hits;
    let results = Engine.exact_results outcomes in
    (match Engine.degraded outcomes with
    | [] -> ()
    | bad ->
      Format.printf "degraded faults (excluded from the profile): %d@."
        (List.length bad);
      List.iter
        (fun o -> Format.printf "  %s@." (Engine.outcome_to_string c o))
        bad);
    let detectable = List.filter (fun r -> r.Engine.detectable) results in
    Format.printf "%d collapsed checkpoint faults, %d detectable@."
      (List.length results) (List.length detectable);
    let detectabilities =
      List.map (fun r -> r.Engine.detectability) detectable
    in
    Histogram.pp Format.std_formatter (Histogram.make ~bins detectabilities);
    Format.printf "mean detectability: %.4f@." (Histogram.mean detectabilities);
    Po_stats.pp Format.std_formatter (Po_stats.summarize results);
    if mem_profile then begin
      let p = Bdd.lifetime_profile (Engine.manager engine) in
      Format.printf
        "@.scratch-node lifetime profile (logical clock = apply steps):@.\
         clock %d steps; %d death(s) observed; %d scratch live, %d frozen@."
        p.Bdd.lp_clock p.Bdd.lp_deaths p.Bdd.lp_live p.Bdd.lp_frozen;
      let width = 44 in
      let peak =
        Array.fold_left max 1 p.Bdd.lp_buckets
      in
      Array.iteri
        (fun b n ->
          if n > 0 then begin
            let label =
              if b = 0 then "       sub-step"
              else Printf.sprintf "[2^%02d, 2^%02d)" (b - 1) b
            in
            Format.printf "  %-15s %9d %s@." label n
              (String.make (max 1 (n * width / peak)) '#')
          end)
        p.Bdd.lp_buckets
    end
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Stuck-at detectability profile of a circuit")
    Term.(
      const run $ circuit_arg $ bins
      $ sweep_config
          ~default:
            {
              Sweep_config.default with
              domains = Parallel.available_domains ();
            }
          [
            fault_budget_flag;
            deadline_ms_flag;
            reorder_flag;
            reorder_growth_flag;
            domains_flag;
          ]
      $ mem_profile)

let atpg_cmd =
  let run spec =
    let c = load_circuit spec in
    let faults = Sa_fault.collapsed_faults c in
    let r = Podem.run_all c faults in
    Format.printf
      "PODEM over %d faults: %d explicit tests, %d redundant, %d aborted, \
       coverage %.4f@."
      (List.length faults)
      (List.length r.Podem.tests)
      (List.length r.Podem.redundant)
      (List.length r.Podem.aborted)
      r.Podem.coverage
  in
  Cmd.v
    (Cmd.info "atpg" ~doc:"PODEM test generation over the checkpoint faults")
    Term.(const run $ circuit_arg)

let equiv_cmd =
  let other =
    let doc = "Second circuit (benchmark name or .bench file)." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CIRCUIT2" ~doc)
  in
  let run spec1 spec2 =
    let c1 = load_circuit spec1 and c2 = load_circuit spec2 in
    let verdict = Equiv.check c1 c2 in
    Format.printf "%a@." (Equiv.pp_verdict c1) verdict;
    match verdict with Equiv.Equivalent -> exit 0 | _ -> exit 1
  in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:"Formal equivalence check of two circuits (positional I/O match)")
    Term.(const run $ circuit_arg $ other)

let scoap_cmd =
  let run spec =
    let c = load_circuit spec in
    let m = Scoap.compute c in
    if Circuit.num_gates c <= 120 then Scoap.pp c Format.std_formatter m
    else begin
      (* Too big for a per-net table: summarise per level. *)
      let levels = Circuit.levels c in
      let table = Hashtbl.create 32 in
      Array.iteri
        (fun g _ ->
          let co = Scoap.observability m g in
          if co <> max_int then begin
            let sum, n =
              Option.value (Hashtbl.find_opt table levels.(g)) ~default:(0, 0)
            in
            Hashtbl.replace table levels.(g) (sum + co, n + 1)
          end)
        c.Circuit.gates;
      Format.printf "  %-7s %10s@." "level" "mean CO";
      Hashtbl.fold (fun l v acc -> (l, v) :: acc) table []
      |> List.sort Stdlib.compare
      |> List.iter (fun (l, (sum, n)) ->
             Format.printf "  %-7d %10.1f@." l
               (float_of_int sum /. float_of_int n))
    end
  in
  Cmd.v
    (Cmd.info "scoap" ~doc:"SCOAP controllability/observability measures")
    Term.(const run $ circuit_arg)

let dot_cmd =
  let net =
    let doc = "Render the OBDD of net $(docv)'s good function instead of \
               the netlist." in
    Arg.(value & opt (some string) None & info [ "net" ] ~docv:"NET" ~doc)
  in
  let fault =
    let doc = "Highlight the sites of a stuck-at fault (NET:VALUE)." in
    Arg.(value & opt (some string) None & info [ "fault" ] ~docv:"SPEC" ~doc)
  in
  let run spec net fault =
    let c = load_circuit spec in
    match net with
    | Some name ->
      let sym = Symbolic.build c in
      print_string (Dot.node_function sym (net_of_name c name))
    | None ->
      let highlight =
        match fault with
        | Some s -> Fault.sites (parse_stuck c s)
        | None -> []
      in
      print_string (Dot.circuit ~highlight c)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Graphviz rendering of a netlist or a net's OBDD")
    Term.(const run $ circuit_arg $ net $ fault)

(* ------------------------------------------------------------------ *)

(* dpa lint — static testability analysis.  Exit-code contract (same
   shape as dpa analyze): 0 = clean at the --fail-on threshold, 1 =
   findings at or above it, 2 = usage error or unparseable input. *)
let lint_cmd =
  let format_arg =
    let doc = "Output format: $(b,text), $(b,json) or $(b,sarif) (2.1.0)." in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let rules_arg =
    let doc =
      "Comma-separated rule ids to run (e.g. $(b,DP001,DP008)); default: all."
    in
    Arg.(
      value
      & opt (some (list ~sep:',' string)) None
      & info [ "rules" ] ~docv:"IDS" ~doc)
  in
  let fail_on =
    let doc =
      "Exit 1 when any finding at or above this severity survives the \
       baseline: $(b,error), $(b,warning), $(b,info), or $(b,never)."
    in
    Arg.(
      value
      & opt
          (enum
             [
               ("error", Some Diagnostic.Error);
               ("warning", Some Diagnostic.Warning);
               ("info", Some Diagnostic.Info);
               ("never", None);
             ])
          (Some Diagnostic.Error)
      & info [ "fail-on" ] ~docv:"SEV" ~doc)
  in
  let baseline_arg =
    let doc =
      "Suppress findings whose fingerprints appear in this baseline file."
    in
    Arg.(
      value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let write_baseline =
    let doc =
      "Write the surviving findings' fingerprints to $(docv) (freezing \
       them for future --baseline runs) and exit 0."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "write-baseline" ] ~docv:"FILE" ~doc)
  in
  let no_verify =
    let doc =
      "Skip the exact Difference Propagation confirmation of \
       \"definitely redundant\" verdicts (structure-only proofs)."
    in
    Arg.(value & flag & info [ "no-verify" ] ~doc)
  in
  let bdd_budget =
    let doc =
      "Node budget of the BDD constancy tier of DP008; 0 disables it."
    in
    Arg.(
      value
      & opt int Lint.default_config.Lint.bdd_budget
      & info [ "bdd-budget" ] ~docv:"NODES" ~doc)
  in
  let list_rules =
    let doc = "List the rule registry and exit." in
    Arg.(value & flag & info [ "list-rules" ] ~doc)
  in
  let lint_circuit_arg =
    let doc = "Benchmark name (see $(b,dpa circuits)) or .bench file path." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)
  in
  let run spec format rules fail_on baseline write_baseline no_verify
      bdd_budget list_rules =
    if list_rules then begin
      List.iter
        (fun (r : Lint.rule) ->
          Format.printf "%s  %-20s %-8s %-15s %s@." r.Lint.id r.Lint.name
            (Diagnostic.severity_to_string r.Lint.default_severity)
            (Lint.tier_to_string r.Lint.tier)
            r.Lint.summary)
        Lint.rules;
      exit 0
    end;
    let spec =
      match spec with
      | Some s -> s
      | None ->
        Printf.eprintf "dpa lint: a CIRCUIT argument is required\n";
        exit 2
    in
    let config =
      { Lint.default_config with Lint.rules; verify = not no_verify; bdd_budget }
    in
    let diags, uri =
      try
        if Sys.file_exists spec then
          let diags, _ = Lint.run_file ~config spec in
          (diags, spec)
        else
          let c =
            try Bench_suite.find spec
            with Not_found ->
              Printf.eprintf
                "unknown circuit %S (not a benchmark name or a readable \
                 file)\n"
                spec;
              exit 2
          in
          (Lint.run ~config c, spec ^ ".bench")
      with
      | Bench_format.Parse_error (span, msg) ->
        Printf.eprintf "%s:%d:%d: %s\n" spec span.Bench_format.line
          span.Bench_format.start_col msg;
        exit 2
      | Lint.Unknown_rule id ->
        Printf.eprintf "unknown lint rule %S (see dpa lint --list-rules)\n" id;
        exit 2
    in
    let diags =
      match baseline with
      | None -> diags
      | Some path ->
        (try Baseline.filter (Baseline.load path) diags with
        | Baseline.Malformed msg ->
          Printf.eprintf "%s: %s\n" path msg;
          exit 2
        | Sys_error msg ->
          Printf.eprintf "%s\n" msg;
          exit 2)
    in
    (match write_baseline with
    | Some path ->
      Baseline.save path diags;
      Format.printf "baseline: froze %d finding(s) into %s@."
        (List.length diags) path;
      exit 0
    | None -> ());
    (match format with
    | `Text ->
      List.iter (fun d -> Format.printf "%a@." Diagnostic.pp d) diags;
      let count sev =
        List.length (List.filter (fun d -> d.Diagnostic.severity = sev) diags)
      in
      Format.printf "%d error(s), %d warning(s), %d info@."
        (count Diagnostic.Error) (count Diagnostic.Warning)
        (count Diagnostic.Info)
    | `Json -> print_endline (Sarif.render_json ~uri diags)
    | `Sarif -> print_endline (Sarif.render ~uri diags));
    match fail_on with
    | Some threshold
      when List.exists
             (fun d ->
               Diagnostic.severity_rank d.Diagnostic.severity
               >= Diagnostic.severity_rank threshold)
             diags ->
      exit 1
    | _ -> exit 0
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static testability analysis: structural, testability and \
          bridge-topology rules with exact-engine-confirmed redundancy \
          verdicts")
    Term.(
      const run $ lint_circuit_arg $ format_arg $ rules_arg $ fail_on
      $ baseline_arg $ write_baseline $ no_verify $ bdd_budget $ list_rules)

(* ------------------------------------------------------------------ *)

(* dpa serve — the resident analysis daemon.  Exit-code contract: 0 =
   clean drain (signal or shutdown request), 2 = usage error or a
   socket/state-dir conflict.  Request-level failures are the client's
   business (busy / error response lines), never the daemon's exit
   code. *)
let serve_cmd =
  let socket_arg =
    let doc =
      "Unix socket path to listen on (default: $(b,dpa.sock) inside \
       $(b,--state-dir), or the working directory without one).  A \
       leftover socket file with no live listener behind it is \
       reclaimed; a live one is refused."
    in
    Arg.(
      value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let tcp_arg =
    let doc =
      "Listen on HOST:PORT instead of a Unix socket.  Port 0 binds an \
       ephemeral port, printed on startup."
    in
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)
  in
  let state_dir_arg =
    let doc =
      "Journal directory for crash-durable sweeps: every analyze \
       request checkpoints to $(docv)/<digest>-<fingerprint>.jsonl, and a \
       killed server restarted on the same directory re-serves the \
       completed prefix byte-identically before resuming.  Without it \
       the daemon is forgetful."
    in
    Arg.(
      value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR" ~doc)
  in
  let workers_arg =
    let doc = "Worker threads draining the request queue." in
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc =
      "Admission-queue bound: requests beyond $(docv) queued jobs are \
       refused with a $(b,busy) response and a retry-after hint instead \
       of buffering without limit."
    in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let cache_arg =
    let doc =
      "Resident-circuit LRU capacity: elaborated circuits and the engines \
       holding their good functions, kept warm between requests."
    in
    Arg.(value & opt int 8 & info [ "cache" ] ~docv:"N" ~doc)
  in
  let sync_every_arg =
    let doc = "Journal fsync batch size (smaller = more crash-durable)." in
    Arg.(value & opt int 8 & info [ "sync-every" ] ~docv:"N" ~doc)
  in
  let verbose_arg =
    let doc = "Log admissions, resumes and drains to stderr." in
    Arg.(value & flag & info [ "verbose" ] ~doc)
  in
  let run socket tcp state_dir workers queue cache sweep sync_every verbose =
    let addr =
      match (tcp, socket) with
      | Some _, Some _ ->
        Printf.eprintf "give --socket or --tcp, not both\n";
        exit 2
      | Some hp, None -> (
        match String.rindex_opt hp ':' with
        | Some i -> (
          let host = String.sub hp 0 i in
          let port = String.sub hp (i + 1) (String.length hp - i - 1) in
          match int_of_string_opt port with
          | Some p when p >= 0 -> Server.Tcp (host, p)
          | _ ->
            Printf.eprintf "--tcp wants HOST:PORT, got %S\n" hp;
            exit 2)
        | None ->
          Printf.eprintf "--tcp wants HOST:PORT, got %S\n" hp;
          exit 2)
      | None, Some path -> Server.Unix_socket path
      | None, None ->
        Server.Unix_socket
          (Filename.concat (Option.value state_dir ~default:".") "dpa.sock")
    in
    let config =
      {
        Server.socket = addr;
        state_dir;
        workers = max 1 workers;
        queue_capacity = max 1 queue;
        cache_capacity = max 1 cache;
        sweep;
        sync_every = max 1 sync_every;
        verbose;
      }
    in
    let server =
      try Server.start config with
      | Failure msg ->
        Printf.eprintf "dpa serve: %s\n" msg;
        exit 2
      | Unix.Unix_error (err, fn, arg) ->
        Printf.eprintf "dpa serve: %s: %s (%s)\n" fn
          (Unix.error_message err) arg;
        exit 2
      | Invalid_argument msg ->
        Printf.eprintf "dpa serve: %s\n" msg;
        exit 2
    in
    (match addr with
    | Server.Unix_socket path ->
      Format.printf "dpa serve: listening on %s@." path
    | Server.Tcp (host, _) ->
      Format.printf "dpa serve: listening on %s:%d@." host
        (Option.value (Server.port server) ~default:0));
    (* Dead clients must not kill the daemon: writes to a closed socket
       become Sys_error (handled per connection), not SIGPIPE. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* Graceful drain on a polite kill: one atomic store from the
       handler; the accept loop notices within 250 ms, stops admitting,
       and the workers finish every queued and in-flight sweep (and
       their journal fsyncs) before the process exits. *)
    let drain _ = Server.request_stop server in
    Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
    Server.wait server;
    Format.printf "dpa serve: drained@.";
    exit 0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Resident analysis daemon: JSON-lines requests over a socket, \
          coalesced streaming sweeps, bounded admission, and \
          journal-backed crash resume")
    Term.(
      const run $ socket_arg $ tcp_arg $ state_dir_arg $ workers_arg
      $ queue_arg $ cache_arg
      $ sweep_config ~default:Sweep_config.default [ domains_flag ]
      $ sync_every_arg $ verbose_arg)

let main =
  let doc = "exact fault analysis by Difference Propagation (DAC 1990)" in
  let info = Cmd.info "dpa" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      circuits_cmd;
      stats_cmd;
      topo_cmd;
      faults_cmd;
      analyze_cmd;
      lint_cmd;
      profile_cmd;
      atpg_cmd;
      equiv_cmd;
      scoap_cmd;
      dot_cmd;
      serve_cmd;
    ]

let () = exit (Cmd.eval main)
