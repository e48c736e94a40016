(* The sweep workloads, and the measurement machinery the serve workload
   shares with them.

   Every layer is measured from outside: the benchmark times its own
   calls into each module's public functions and reads the counters
   those modules already export ([Engine.sweep_stats], [Bdd.apply_steps],
   [Gc.quick_stat]).  Nothing inside lib/ is instrumented.

   A run times its set-up on its own, repeatedly, and then runs a
   sequence of identical rounds, started while the measuring window is
   open.  Each round sets its engine up from the netlist file and sweeps
   the faults in the order the CLI does, and identical rounds make every
   deterministic counter repeat exactly.  Metrics over repetitions and
   rounds are medians, and their times are corrected for host speed
   ([Hostspeed]). *)

open Metrics

type scale = Full | Mini  (** [Mini] runs each workload's code on c17 *)

type digests =
  | Check of (string * string) list  (** the committed seed-1 digests *)
  | Record of (string * string) list ref  (** [--bless]: collect them *)
  | Skip

type config = {
  seed : int;
  seconds : float;  (** measuring window *)
  traced : bool;
  scale : scale;
  data_dir : string;  (** the .bench netlists *)
  work_dir : string;  (** scratch for journals and the daemon socket *)
  dpa : string;  (** the [dpa] executable, for serve-mixed *)
  digests : digests;
  per_layer : Spec.metric list;  (** what a traced run reports, from BENCHMARK.json *)
}

let now = Trace.now
let netlist cfg name = Filename.concat cfg.data_dir (name ^ ".bench")
let stuck_faults c = List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)
let every stride l = List.filteri (fun i _ -> i mod stride = 0) l

(* ------------------------------------------------------------------ *)
(* Metric tables                                                       *)

(* Every per-layer metric BENCHMARK.json declares, as the median of its
   round samples.  A layer's time is reported in seconds only when every
   workload runs that layer; a layer only some workloads run reports its
   time as a share of sweep wall time, which reads 0 where the layer is
   absent. *)
let per_layer_metrics cfg acc =
  List.map
    (fun (d : Spec.metric) ->
      metric ~samples:(Acc.count acc d.name) d.name d.unit (Acc.median acc d.name))
    cfg.per_layer

(* The end-to-end metrics every workload reports, from the durations it
   timed — its set-up repetitions, its rounds (answers given, and the
   seconds it took to give them), and its answers (one fault for a
   sweep, one request for serve) — and from its outcome tally.  The tail
   latency is p98, the highest percentile with at least ten samples
   beyond it on every workload: a ladder-c499 round answers 658 faults,
   a serve-mixed run about 1,000 requests. *)
let end_to_end ~setups ~rounds ~latencies ~exact ~answered ~rss_mb =
  let throughput = List.map (fun (n, s) -> float_of_int n /. s) rounds in
  let latencies_ms = List.map (fun s -> s *. 1000.) latencies in
  let n = List.length latencies_ms in
  let pct p = if n = 0 then 0. else Stats.percentile p latencies_ms in
  [
    metric ~samples:(List.length setups) "setup_s" "s"
      (if setups = [] then 0. else Stats.median setups);
    metric ~samples:(List.length throughput) "faults_per_s" "1/s"
      (if throughput = [] then 0. else Stats.median throughput);
    metric ~samples:n "p50_ms" "ms" (pct 50.);
    metric ~samples:n "p98_ms" "ms" (pct 98.);
    metric ~samples:answered "exact_share" "ratio"
      (if answered = 0 then 0. else float_of_int exact /. float_of_int answered);
    metric "peak_rss_mb" "MB" rss_mb;
  ]

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)

(* Correctness checks: each counts as one attempted operation, and a
   failure is reported on stderr and counted as failed. *)
type checks = { mutable run : int; mutable bad : int }

let checks () = { run = 0; bad = 0 }

let check ck ok fmt =
  ck.run <- ck.run + 1;
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        ck.bad <- ck.bad + 1;
        Printf.eprintf "check failed: %s\n%!" msg
      end)
    fmt

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let check_digest cfg ck key actual =
  match cfg.digests with
  | Skip -> ()
  | Record r -> r := (key, actual) :: List.remove_assoc key !r
  | Check expected -> (
    match List.assoc_opt key expected with
    | Some d -> check ck (d = actual) "%s: outcome digest %s, expected %s" key actual d
    | None -> check ck false "%s: no committed digest" key)

(* The probability, were [p] the true detectability, of a count of
   [hits] in [n] random vectors or one further from [n p] on the same
   side: the binomial tail, summed in log space. *)
let binomial_tail ~p ~n hits =
  if p <= 0. then if hits = 0 then 1. else 0.
  else if p >= 1. then if hits = n then 1. else 0.
  else begin
    let log_term = Array.make (n + 1) (float_of_int n *. Float.log1p (-.p)) in
    for i = 0 to n - 1 do
      log_term.(i + 1) <-
        log_term.(i)
        +. log (float_of_int (n - i) /. float_of_int (i + 1))
        +. log p -. Float.log1p (-.p)
    done;
    let lo, hi = if float_of_int hits >= p *. float_of_int n then (hits, n) else (0, hits) in
    let peak = ref neg_infinity in
    for i = lo to hi do
      peak := Float.max !peak log_term.(i)
    done;
    let sum = ref 0. in
    for i = lo to hi do
      sum := !sum +. exp (log_term.(i) -. !peak)
    done;
    Float.min 1. (exp !peak *. !sum)
  end

(* On [n] seeded faults, an independent random-pattern estimate must be
   consistent with the exact detectability: a binomial tail of at least
   1e-7, the one-sided mass beyond z = 5.2.  (The z = 5 Wilson interval
   the engine's bounded fallback reports under-covers for tiny
   detectabilities: a fault at 2^-18 that draws one hit in 4,096 vectors,
   1.5% likely, has its exact value below the interval.) *)
let sampling_checks cfg ck circuit outcomes n =
  let exact =
    Array.of_list
      (List.filter_map (function Engine.Exact r -> Some r | _ -> None) outcomes)
  in
  if Array.length exact > 0 then begin
    let rng = Prng.create ~seed:(cfg.seed * 7919) in
    for _ = 1 to n do
      let r = exact.(Prng.int rng (Array.length exact)) in
      let hits, applied =
        Fault_sim.sample_detections ~seed:(Prng.int rng 1_000_000) ~patterns:4096 circuit
          r.Engine.fault
      in
      let tail = binomial_tail ~p:r.Engine.detectability ~n:applied hits in
      check ck (tail >= 1e-7) "%s %s: exact %.6g, but %d of %d random vectors detect it (tail %.3g)"
        circuit.Circuit.title
        (Fault.to_string circuit r.Engine.fault)
        r.Engine.detectability hits applied tail
    done
  end

(* Exhaustive simulation must reproduce an exact detectability bit for
   bit (both are dyadic rationals with at most 14 fractional bits). *)
let exhaustive_check ck circuit (r : Engine.result) =
  let sim = Fault_sim.exhaustive_detectability circuit r.Engine.fault in
  check ck (sim = r.Engine.detectability) "%s %s: exact %.17g, exhaustive %.17g"
    circuit.Circuit.title
    (Fault.to_string circuit r.Engine.fault)
    r.Engine.detectability sim

(* ------------------------------------------------------------------ *)
(* Measured calls                                                      *)

let timed ?group name f =
  let t0 = now () in
  let r = Trace.with_span ?group name f in
  (r, now () -. t0)

(* A round's layer samples are (name, value) pairs; a figures pass sums
   those of its five circuits before they become one round sample. *)
let record_layers acc layers =
  let names = List.sort_uniq compare (List.map fst layers) in
  let total k = List.fold_left (fun a (n, v) -> if n = k then a +. v else a) 0. layers in
  List.iter (fun k -> Acc.add acc k (total k)) names;
  let steps = total "engine.po_differences_steps" +. total "bdd.po_union_steps" in
  if steps > 0. then
    Acc.add acc "bdd.ns_per_apply_step"
      ((total "engine.po_differences_s" +. total "bdd.po_union_s") /. steps *. 1e9)

type setup = {
  circuit : Circuit.t;
  groups : Fault.t list list;  (** fault lists swept one call each *)
  engine : Engine.t;
  layers : (string * float) list;
}

(* The calls [dpa analyze --all] makes before its first fault: parse,
   fault lists, and engine creation, with the topology oracle's verdict
   timed on its own and handed to [Engine.create]. *)
let set_up ~parse ~faults_of =
  let circuit, parse_s = timed "bench_format.parse" parse in
  let groups, list_s = timed "faults.list" (fun () -> faults_of circuit) in
  let (_, winner, _, confident), oracle_s =
    timed "ordering.oracle" (fun () -> Ordering.oracle circuit)
  in
  let heuristic = if confident then winner else Ordering.Natural in
  let engine, build_s = timed "symbolic.build" (fun () -> Engine.create ~heuristic circuit) in
  let count l = float_of_int (List.length l) in
  {
    circuit;
    groups;
    engine;
    layers =
      [
        ("bench_format.parse_s", parse_s);
        ("faults.list_s", list_s);
        ("faults.count", count (List.concat groups));
        ("ordering.oracle_s", oracle_s);
        ("symbolic.build_s", build_s);
        ("symbolic.good_functions", float_of_int (Symbolic.built_count (Engine.symbolic engine)));
        ("bdd.good_nodes", float_of_int (Bdd.allocated_nodes (Engine.manager engine)));
      ];
  }

(* One sweep call and what the benchmark can see of it from outside. *)
type call = {
  outcomes : Engine.outcome list;
  stats : Engine.sweep_stats;
  wall : float;
  span : float * float;  (** start and end of the call *)
  answers : (float * float) list;  (** the interval of each answered fault *)
  minor_words : float;
  major_words : float;
  append_s : float;
  bounds_s : float;
}

(* A journal sink wrapped so the benchmark's record callback times every
   [Journal.append]. *)
type journal = { sink : Journal.sink; path : string; mutable append_time : float }

let open_journal ?sync_every ~path circuit faults =
  let digest = Journal.digest circuit faults in
  let sink = Journal.create ?sync_every ~path ~digest ~faults:(List.length faults) () in
  { sink; path; append_time = 0. }

let engine_journal j =
  {
    Engine.skip = (fun _ -> None);
    record =
      (fun i o ->
        let t0 = now () in
        Journal.append j.sink i o;
        j.append_time <- j.append_time +. (now () -. t0));
  }

(* A fault's answer interval runs from its domain's previous answer (or
   the call's start) to its own.  Outcomes arrive from worker domains
   under the Snapshot scheduler, hence the lock.  A one-domain sweep runs
   the host-speed kernel between faults every half second; the kernel's
   time is cut out of every interval when it is corrected. *)
let sweep ?fault_budget ?deterministic ?journal ?(domains = 1) ?(scheduler = Engine.Static) ~host
    engine faults =
  let mu = Mutex.create () in
  let stamps = ref [] in
  let on_outcome _ _ =
    let t = now () in
    let d = (Domain.self () :> int) in
    Mutex.lock mu;
    stamps := (d, t) :: !stamps;
    Mutex.unlock mu;
    if domains = 1 then Hostspeed.probe_if_due host ~every:0.5
  in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let outcomes, stats =
    Trace.with_span "engine.sweep" (fun () ->
        Engine.analyze_all_stats ?fault_budget ?deterministic
          ?journal:(Option.map engine_journal journal) ~on_outcome ~domains ~scheduler engine
          faults)
  in
  let t1 = now () in
  let gc1 = Gc.quick_stat () in
  let by_domain = Hashtbl.create 4 in
  List.iter (fun (d, t) -> Hashtbl.add by_domain d t) !stamps;
  let answers =
    Hashtbl.fold (fun d _ acc -> d :: acc) by_domain []
    |> List.sort_uniq compare
    |> List.concat_map (fun d ->
           let ts = List.sort Float.compare (Hashtbl.find_all by_domain d) in
           snd (List.fold_left (fun (prev, acc) t -> (t, (prev, t) :: acc)) (t0, []) ts))
  in
  {
    outcomes;
    stats;
    wall = t1 -. t0;
    span = (t0, t1);
    answers;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
    append_s = Option.fold ~none:0. ~some:(fun j -> j.append_time) journal;
    bounds_s = 0.;
  }

let is_bounded = function Engine.Bounded _ -> true | _ -> false

(* Re-time, on their own, the fallback estimates a sweep made for its
   bounded faults: the same [Fault_sim.sample_detections] call, seed and
   sample size the engine uses. *)
let time_bounds circuit call =
  let faults =
    List.filter_map
      (function
        | Engine.Bounded { fault; samples; _ } -> Some (fault, samples) | _ -> None)
      call.outcomes
  in
  let bounds_s =
    List.fold_left
      (fun total (fault, samples) ->
        let _, s =
          timed "fault_sim.bounds" (fun () ->
              Fault_sim.sample_detections
                ~seed:(Hashtbl.hash fault land 0x3FFFFFFF)
                ~patterns:samples circuit fault)
        in
        total +. s)
      0. faults
  in
  { call with bounds_s }

(* The layer samples of a round's sweep calls (one sweep, or the ten of a
   figures pass). *)
let call_layers calls =
  let sum f = List.fold_left (fun a c -> a +. f c) 0. calls in
  let isum f = sum (fun c -> float_of_int (f c.stats)) in
  let wall = sum (fun c -> c.wall) in
  let share f = if wall > 0. then sum f /. wall else 0. in
  let busy =
    sum (fun c -> c.stats.Engine.analysis_wall_seconds *. float_of_int c.stats.Engine.domains)
  in
  [
    ("engine.sweep_s", wall);
    ("engine.snapshot_share", share (fun c -> c.stats.Engine.snapshot_seconds));
    ("engine.fork_build_share", share (fun c -> c.stats.Engine.build_seconds));
    ("engine.batches", isum (fun s -> s.Engine.batch_count));
    ( "engine.parallel_efficiency",
      if busy > 0. then sum (fun c -> c.stats.Engine.analysis_cpu_seconds) /. busy else 0. );
    ("engine.gc_share", share (fun c -> c.stats.Engine.gc_seconds));
    ("engine.gc_collections", isum (fun s -> s.Engine.gc_collections));
    ("engine.epoch_resets", isum (fun s -> s.Engine.epoch_resets));
    ("engine.tenured_nodes", isum (fun s -> s.Engine.tenured_nodes));
    ("bdd.apply_steps", isum (fun s -> s.Engine.apply_steps));
    ("bdd.nodes_allocated", isum (fun s -> s.Engine.nodes_allocated));
    ( "bdd.scratch_peak_nodes",
      List.fold_left (fun a c -> Float.max a (float_of_int c.stats.Engine.scratch_peak_nodes)) 0. calls );
    ("bdd.warm_cache_hits", isum (fun s -> s.Engine.warm_cache_hits));
    ("ocaml.minor_words", sum (fun c -> c.minor_words));
    ("ocaml.major_words", sum (fun c -> c.major_words));
    ("engine.retry_attempts", isum (fun s -> s.Engine.retry_attempts));
    ("engine.rescued_faults", isum (fun s -> s.Engine.rescued_faults));
    ( "engine.bounded_faults",
      sum (fun c -> float_of_int (List.length (List.filter is_bounded c.outcomes))) );
    ("engine.sift_share", share (fun c -> c.stats.Engine.sift_seconds));
    ("fault_sim.bounds_share", share (fun c -> c.bounds_s));
    ("journal.append_share", share (fun c -> c.append_s));
  ]

let journal_layers j =
  Journal.close j.sink;
  let text = In_channel.with_open_bin j.path In_channel.input_all in
  let lines = List.length (String.split_on_char '\n' (String.trim text)) in
  [
    ("journal.records", float_of_int (lines - 1));
    ("journal.bytes", float_of_int (String.length text));
  ]

(* The per-fault sample of a traced round: every 8th fault is analysed
   again call by call — difference propagation to the outputs, the PO
   union, the sat-count — and the arena collected after it, so each
   layer's self time and apply steps are measured on their own.  The
   composition is [Engine.analyze]'s. *)
let replay_sample engine faults =
  let sample = every 8 faults in
  let layers =
    List.concat
      (List.mapi
         (fun i fault ->
           let group = i + 1 in
           Trace.with_span ~group "fault" (fun () ->
               let m = Engine.manager engine in
               let s0 = Bdd.apply_steps m in
               let per_po, po_s =
                 timed ~group "engine.po_differences" (fun () -> Engine.po_differences engine fault)
               in
               let s1 = Bdd.apply_steps m in
               let union, union_s =
                 timed ~group "bdd.po_union" (fun () ->
                     Array.fold_left (Bdd.bor m) (Bdd.zero m) per_po)
               in
               let s2 = Bdd.apply_steps m in
               let _, sat_s = timed ~group "bdd.sat_count" (fun () -> Bdd.sat_fraction m union) in
               let (), collect_s = timed ~group "engine.collect" (fun () -> Engine.collect engine) in
               [
                 ("engine.po_differences_s", po_s);
                 ("engine.po_differences_steps", float_of_int (s1 - s0));
                 ("bdd.po_union_s", union_s);
                 ("bdd.po_union_steps", float_of_int (s2 - s1));
                 ("bdd.sat_count_s", sat_s);
                 ("engine.collect_s", collect_s);
               ]))
         sample)
  in
  ("trace.sampled_faults", float_of_int (List.length sample)) :: layers

(* Spans that group work rather than time a layer: their self time is
   the part of the traced rounds that no layer span accounts for. *)
let containers = [ "round"; "fault"; "request"; "circuit" ]

let record_trace_shares acc =
  let spans = Trace.self_times (Trace.spans ()) in
  let total, unattributed =
    List.fold_left
      (fun (total, un) (s, self) ->
        ( (if s.Trace.name = "round" then total +. (s.Trace.stop -. s.Trace.start) else total),
          if List.mem s.Trace.name containers then un +. self else un ))
      (0., 0.) spans
  in
  if total > 0. then Acc.add acc "trace.unattributed_share" (unattributed /. total)

(* Traced runs alternate traced and untraced set-up repetitions; the
   overhead is the traced ones' median time over the untraced ones',
   minus 1. *)
let record_overhead acc ~traced_key ~plain_key =
  match (Acc.samples acc traced_key, Acc.samples acc plain_key) with
  | (_ :: _ as t), (_ :: _ as p) ->
    Acc.add acc "trace.overhead_share" ((Stats.median t /. Stats.median p) -. 1.)
  | _ -> ()

(* Start [round i] for i = 0, 1, ... while the window is open, so a run
   measures at least the window and overruns it by at most one round.
   Each round starts from a compacted heap, outside its span.  A run of
   the host-speed kernel closes the rounds. *)
let run_rounds cfg host round =
  let start = now () in
  let rec go i =
    Gc.compact ();
    Trace.with_span "round" (fun () -> round i);
    if now () -. start < cfg.seconds then go (i + 1)
  in
  go 0;
  Hostspeed.probe host

let rss () = Option.value (Proc.peak_rss_mb None) ~default:0.

(* The sweeps' intervals are corrected for host speed; a round's time is
   the sum of its sweep calls' intervals. *)
let finish cfg acc host ~setups ~rounds ~answers ~exact ~answered ~unanswered ~ck ~rss_mb =
  let metrics =
    if cfg.traced then begin
      record_trace_shares acc;
      per_layer_metrics cfg acc
    end
    else begin
      let span = Hostspeed.scale host in
      let total spans = List.fold_left (fun acc s -> acc +. span s) 0. spans in
      end_to_end ~setups:(List.map span setups)
        ~rounds:(List.map (fun (n, spans) -> (n, total spans)) rounds)
        ~latencies:(List.map span answers) ~exact ~answered ~rss_mb
    end
  in
  {
    correct = ck.bad = 0 && unanswered = 0;
    attempted = answered + ck.run;
    failed = unanswered + ck.bad;
    metrics;
  }

let unanswered outcomes =
  List.length (List.filter (fun o -> Engine.outcome_bounds o = None) outcomes)

let exact_count outcomes = List.length (List.filter Engine.is_exact outcomes)


(* ------------------------------------------------------------------ *)
(* The sweep workloads                                                 *)

type spec = {
  key : string;
  circuits : string list;  (** netlists set up and swept, in order, per round *)
  faults_of : Circuit.t -> Fault.t list list;  (** one sweep call per list *)
  domains : int;
  scheduler : Engine.scheduler;
  ladder : int option;
      (** per-attempt node budget; the sweep is then journaled and
          deterministic, as [--fault-budget N --checkpoint FILE] makes it *)
  warm_up : bool;  (** run one untimed round first *)
  seeded : bool;  (** the outcomes depend on [--seed] *)
  check : config -> checks -> (Circuit.t * Engine.outcome list) list -> unit;
}

(* Set-up — parse, fault lists, oracle and [Engine.create] of every
   circuit of the spec — is timed on its own before the rounds: a few
   untimed repetitions warm the code and the heap, then [setup_repeats]
   timed ones, each between two runs of the host-speed kernel, give the
   median set-up time.  A traced run traces every other repetition, so
   that tracing's overhead can be measured. *)
let setup_warm_ups = 3
let setup_repeats = 25

(* One round sets up and sweeps every circuit of the spec, each after a
   run of the host-speed kernel; its throughput and layer samples are
   sums over those circuits.  Like a fresh [dpa] process, a round (and
   each set-up repetition) starts from a compacted heap, untimed, so the
   previous round's garbage is not collected on this round's clock. *)
let sweep_workload spec cfg =
  let acc = Acc.create () in
  let ck = checks () in
  let host = Hostspeed.create ~active:(not cfg.traced) in
  let setups = ref [] and rounds = ref [] and answers = ref [] in
  let exact = ref 0 and answered = ref 0 and missing = ref 0 in
  let digests = ref [] and last = ref [] in
  let round ~record ~index =
    let traced = !Trace.enabled in
    let results =
      List.map
        (fun name ->
          Hostspeed.probe host;
          Trace.with_span "circuit" (fun () ->
              let s =
                set_up
                  ~parse:(fun () -> Bench_format.parse_file (netlist cfg name))
                  ~faults_of:spec.faults_of
              in
              let faults = List.concat s.groups in
              let journal, lock =
                match spec.ladder with
                | None -> (None, None)
                | Some _ ->
                  let path =
                    Filename.concat cfg.work_dir (Printf.sprintf "%s-%s-%d.jsonl" spec.key name index)
                  in
                  let lock =
                    match Journal.acquire_writer_lock ~path () with
                    | Ok l -> l
                    | Error msg -> failwith msg
                  in
                  (Some (open_journal ~path s.circuit faults), Some lock)
              in
              let calls =
                List.map
                  (fun group ->
                    let call =
                      sweep ?fault_budget:spec.ladder ~deterministic:(spec.ladder <> None) ?journal
                        ~domains:spec.domains ~scheduler:spec.scheduler ~host s.engine group
                    in
                    if traced then time_bounds s.circuit call else call)
                  s.groups
              in
              let journal_layers = Option.fold ~none:[] ~some:journal_layers journal in
              Option.iter Journal.release_writer_lock lock;
              let sample = if traced then replay_sample s.engine faults else [] in
              (s, calls, s.layers @ journal_layers @ sample)))
        spec.circuits
    in
    if record then begin
      let calls = List.concat_map (fun (_, calls, _) -> calls) results in
      record_layers acc (call_layers calls @ List.concat_map (fun (_, _, l) -> l) results);
      let outcomes = List.concat_map (fun c -> c.outcomes) calls in
      let n = List.length outcomes in
      rounds := (n, List.map (fun c -> c.span) calls) :: !rounds;
      answers := List.concat_map (fun c -> c.answers) calls @ !answers;
      exact := !exact + exact_count outcomes;
      answered := !answered + n;
      missing := !missing + unanswered outcomes;
      digests :=
        digest_lines
          (List.concat_map
             (fun (s, calls, _) ->
               s.circuit.Circuit.title
               :: List.concat_map (fun c -> List.mapi Journal.outcome_line c.outcomes) calls)
             results)
        :: !digests;
      last :=
        List.map (fun (s, calls, _) -> (s.circuit, List.concat_map (fun c -> c.outcomes) calls)) results
    end
  in
  Trace.with_span "run" (fun () ->
      for i = 1 to setup_warm_ups + setup_repeats do
        Gc.compact ();
        Hostspeed.probe host;
        let traced = cfg.traced && i mod 2 = 0 in
        Trace.enabled := traced;
        let t0 = now () in
        List.iter
          (fun name ->
            ignore
              (set_up ~parse:(fun () -> Bench_format.parse_file (netlist cfg name)) ~faults_of:spec.faults_of))
          spec.circuits;
        let t1 = now () in
        Trace.enabled := cfg.traced;
        if i > setup_warm_ups then begin
          setups := (t0, t1) :: !setups;
          Acc.add acc (if traced then "setup.traced" else "setup.plain") (t1 -. t0)
        end
      done;
      Hostspeed.probe host;
      if spec.warm_up then begin
        Trace.enabled := false;
        round ~record:false ~index:(-1);
        Trace.enabled := cfg.traced
      end;
      run_rounds cfg host (fun index -> round ~record:true ~index));
  let rss_mb = rss () in
  record_overhead acc ~traced_key:"setup.traced" ~plain_key:"setup.plain";
  (* Checks, outside the measuring window. *)
  check ck (List.length (List.sort_uniq compare !digests) = 1) "%s: rounds disagree on their outcomes"
    spec.key;
  if not spec.seeded then check_digest cfg ck spec.key (List.hd !digests)
  else if cfg.seed = 1 then check_digest cfg ck (spec.key ^ "@seed1") (List.hd !digests);
  spec.check cfg ck !last;
  Hostspeed.log host spec.key;
  finish cfg acc host ~setups:!setups ~rounds:!rounds ~answers:!answers ~exact:!exact
    ~answered:!answered ~unanswered:!missing ~ck ~rss_mb

(* Every bounded interval must contain the fault's uncapped exact value. *)
let bounded_checks key ck (circuit, outcomes) =
  let uncapped = lazy (Engine.create circuit) in
  List.iter
    (fun o ->
      match (o, Engine.outcome_bounds o) with
      | Engine.Bounded { fault; _ }, Some (lo, hi) ->
        let d = (Engine.analyze (Lazy.force uncapped) fault).Engine.detectability in
        check ck (lo <= d && d <= hi) "%s %s: exact %.6g outside bound [%.6g, %.6g]" key
          (Fault.to_string circuit fault) d lo hi
      | _ -> ())
    outcomes

(* sweep-c1908: [dpa analyze --all c1908] — one domain, CLI defaults — on
   all 2,409 collapsed faults in their CLI order, so each fault finds the
   operation caches its predecessors left, as in the real sweep.  A round
   takes about the whole window.  The Bdd kernel does nearly all the
   work. *)
let sweep_c1908 cfg =
  sweep_workload
    {
      key = "sweep-c1908";
      circuits = [ (match cfg.scale with Full -> "c1908" | Mini -> "c17") ];
      faults_of = (fun c -> [ stuck_faults c ]);
      domains = 1;
      scheduler = Engine.Static;
      ladder = None;
      warm_up = false;
      seeded = false;
      check = (fun cfg ck last -> List.iter (fun (c, o) -> sampling_checks cfg ck c o 32) last);
    }
    cfg

(* ladder-c499: [dpa analyze --all c499 --fault-budget 5000 --checkpoint
   FILE] on all 658 collapsed faults in their CLI order: retries, reorder
   rescues and bounded fallbacks do the work, and the journal records
   every outcome.  The one workload where exact_share is below 1. *)
let ladder_c499 cfg =
  sweep_workload
    {
      key = "ladder-c499";
      circuits = [ (match cfg.scale with Full -> "c499" | Mini -> "c17") ];
      faults_of = (fun c -> [ stuck_faults c ]);
      domains = 1;
      scheduler = Engine.Static;
      ladder = Some (match cfg.scale with Full -> 5000 | Mini -> 8);
      warm_up = false;
      seeded = false;
      check =
        (fun cfg ck last ->
          List.iter
            (fun (c, o) ->
              sampling_checks cfg ck c o 32;
              bounded_checks "ladder-c499" ck (c, o))
            last);
    }
    cfg

(* figures-small: what [Experiments.run] does per circuit under
   [Experiments.default] (Snapshot scheduler, 2 domains) — a stuck-at
   sweep, then a sweep of the bridging faults [Experiments.bridge_faults]
   selects: the full NFBF sets of c17, fulladder, c95 and alu74181, and
   150 [--seed]-sampled layout-weighted pairs of c499.  Faults here are
   ~100x cheaper than on c1908, so per-fault fixed costs, engine set-up
   and Snapshot seal/fork/batching dominate.  The first pass is an
   untimed warm-up. *)
let figures_small cfg =
  let circuits, sample =
    match cfg.scale with
    | Full -> ([ "c17"; "fulladder"; "c95"; "alu74181"; "c499" ], 150)
    | Mini -> ([ "c17" ], 4)
  in
  let config =
    { Experiments.default with Experiments.seed = cfg.seed; bridge_sample = sample; domains = 2 }
  in
  sweep_workload
    {
      key = "figures-small";
      circuits;
      faults_of =
        (fun c ->
          let bridges, _ = Experiments.bridge_faults config c in
          [ stuck_faults c; List.map (fun b -> Fault.Bridged b) bridges ]);
      domains = config.Experiments.domains;
      scheduler = config.Experiments.scheduler;
      ladder = None;
      warm_up = true;
      seeded = true;
      check =
        (fun cfg ck last ->
          (* 64 seeded faults of the circuits small enough to simulate
             exhaustively (at most 14 inputs). *)
          let pool =
            Array.of_list
              (List.concat_map
                 (fun (c, outcomes) ->
                   if Circuit.num_inputs c > 14 then []
                   else List.filter_map (function Engine.Exact r -> Some (c, r) | _ -> None) outcomes)
                 last)
          in
          if Array.length pool > 0 then begin
            let rng = Prng.create ~seed:(cfg.seed * 104729) in
            for _ = 1 to 64 do
              let c, r = pool.(Prng.int rng (Array.length pool)) in
              exhaustive_check ck c r
            done
          end);
    }
    cfg
