type config = {
  bridge_sample : int;
  theta : float;
  seed : int;
  bins : int;
  domains : int;
  (* Ignored; read only by benchmark/ and goes with ROADMAP item 4. *)
  scheduler : Engine.scheduler;
}

let default =
  {
    bridge_sample = 150;
    theta = 0.25;
    seed = 42;
    bins = 10;
    domains = Parallel.available_domains ();
    scheduler = Engine.Snapshot;
  }

type circuit_run = {
  circuit : Circuit.t;
  engine : Engine.t;
  sa_results : Engine.result list;
  bf_results : Engine.result list;
  bf_faults : Bridge.t list;
  bf_sampled : Bridge.sample_stats option;
  degraded : Engine.outcome list;
}

let cache : (string * config, circuit_run) Hashtbl.t = Hashtbl.create 16

let clear_cache () = Hashtbl.reset cache

(* The paper enumerates the full NFBF set for the four smallest circuits
   and samples by layout distance for the rest (§2.2). *)
let bridge_faults config c =
  let small = [ "c17"; "fulladder"; "c95"; "alu74181" ] in
  if List.mem c.Circuit.title small then (Bridge.enumerate c, None)
  else
    let faults, stats =
      Bridge.sample ~theta:config.theta ~seed:config.seed
        ~size:config.bridge_sample c
    in
    (faults, Some stats)

let run ?(config = default) name =
  match Hashtbl.find_opt cache (name, config) with
  | Some r -> r
  | None ->
    let circuit = Bench_suite.find name in
    let engine = Engine.create circuit in
    (* Cached results are plain scalars, but [engine] itself is also
       cached and handed to later consumers; a collection or epoch
       close invalidates any BDD handles they hold, so evict the entry and
       let the next [run] start from a consistent engine. *)
    Engine.on_rebuild engine (fun () -> Hashtbl.remove cache (name, config));
    let sa_faults =
      List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults circuit)
    in
    (* No per-fault resource caps: the paper's figures want every fault
       exact. *)
    let sweep faults =
      fst
        (Engine.sweep
           ~config:
             { Sweep_config.default with domains = config.domains }
           engine faults)
    in
    let sa_outcomes = sweep sa_faults in
    let bf_faults, bf_sampled = bridge_faults config circuit in
    let bf_outcomes = sweep (List.map (fun b -> Fault.Bridged b) bf_faults) in
    let r =
      {
        circuit;
        engine;
        sa_results = Engine.exact_results sa_outcomes;
        bf_results = Engine.exact_results bf_outcomes;
        bf_faults;
        bf_sampled;
        degraded = Engine.degraded sa_outcomes @ Engine.degraded bf_outcomes;
      }
    in
    Hashtbl.replace cache (name, config) r;
    r

let detectabilities results =
  results
  |> List.filter (fun r -> r.Engine.detectable)
  |> List.map (fun r -> r.Engine.detectability)

let adherence_values results =
  results
  |> List.filter (fun r -> r.Engine.detectable)
  |> List.filter_map (fun r -> r.Engine.adherence)

let split_bridge_results cr =
  List.partition
    (fun r ->
      match r.Engine.fault with
      | Fault.Bridged { Bridge.kind = Bridge.Wired_and; _ } -> true
      | Fault.Bridged { Bridge.kind = Bridge.Wired_or; _ }
      | Fault.Stuck _ | Fault.Multi_stuck _ ->
        false)
    cr.bf_results

(* Table 1 verification: random good/difference function pairs, all gate
   kinds, rules vs direct evaluation. *)
let table1_verification ~trials ~vars =
  let m = Bdd.create vars in
  let rng = Prng.create ~seed:7 in
  let random_bdd () =
    (* Random function as a XOR/AND/OR mix over literals. *)
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
    build 3
  in
  let kinds =
    [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor ]
  in
  let ok = ref true in
  for _ = 1 to trials do
    let arity = 2 + Prng.int rng 3 in
    let good = Array.init arity (fun _ -> random_bdd ()) in
    let delta =
      Array.init arity (fun _ ->
          if Prng.int rng 3 = 0 then Bdd.zero m else random_bdd ())
    in
    List.iter
      (fun kind ->
        let by_rule = Rules.delta m kind ~good ~delta in
        let direct = Rules.delta_direct m kind ~good ~delta in
        if not (Bdd.equal by_rule direct) then ok := false)
      kinds
  done;
  !ok

let histogram_of config results = Histogram.make ~bins:config.bins results

let fig1 ?(config = default) () =
  [ "c95"; "alu74181" ]
  |> List.map (fun name ->
         let cr = run ~config name in
         (name, histogram_of config (detectabilities cr.sa_results)))

let fig2 ?(config = default) () =
  Bench_suite.names
  |> List.map (fun name ->
         let cr = run ~config name in
         Trends.row_of_results cr.circuit cr.sa_results)

let fig3 ?(config = default) () =
  let cr = run ~config "c1355" in
  Bathtub.by_po_distance cr.circuit cr.sa_results

let fig3_pi ?(config = default) () =
  let cr = run ~config "c1355" in
  Bathtub.by_pi_level cr.circuit cr.sa_results

let fig4 ?(config = default) () =
  let cr = run ~config "alu74181" in
  histogram_of config (adherence_values cr.sa_results)

let fig5 ?(config = default) () =
  Bench_suite.names
  |> List.map (fun name ->
         let cr = run ~config name in
         (name, Bridge_class.classify cr.engine cr.bf_faults))

let fig6 ?(config = default) () =
  let cr = run ~config "c95" in
  let and_r, or_r = split_bridge_results cr in
  ( histogram_of config (detectabilities and_r),
    histogram_of config (detectabilities or_r) )

let fig7 ?(config = default) () =
  Bench_suite.names
  |> List.map (fun name ->
         let cr = run ~config name in
         Trends.row_of_results cr.circuit cr.bf_results)

let fig8 ?(config = default) () =
  let cr = run ~config "c1355" in
  let and_r, or_r = split_bridge_results cr in
  ( Bathtub.by_po_distance cr.circuit and_r,
    Bathtub.by_po_distance cr.circuit or_r )

let po_observability ?(config = default) () =
  Bench_suite.names
  |> List.map (fun name ->
         let cr = run ~config name in
         (name, Po_stats.summarize cr.sa_results))
