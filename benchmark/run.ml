(* The repository benchmark.

     run.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|FILE]
             [--out FILE] [--bless]
     run.exe compare A.json... -- B.json...

   Without --workload the four workloads run in sequence.  Each runs in
   a child process of its own (a fresh heap, its own peak memory) under
   a wall-clock watchdog; a timeout or crash counts as a failed
   operation and never hangs the run.  Every end-to-end metric is
   printed per workload with its unit and sample count, and the last
   line of standard output is the result as one JSON object.  With
   --trace the run is the separate traced run: it reports the per-layer
   metrics instead, and --trace FILE also writes the spans as Chrome
   trace-event JSON.  Exit status 0 means every correctness check
   passed.  See benchmark/README.md. *)

open Dpbench

let workloads =
  [
    ("sweep-c1908", Workloads.sweep_c1908);
    ("figures-small", Workloads.figures_small);
    ("ladder-c499", Workloads.ladder_c499);
    ("serve-mixed", Serve_load.run);
  ]

(* An allowance for the time a workload spends outside its measuring
   window (set-up repetitions, warm-up, checks, process start) and for
   the one round that may overrun it, rounded up from seed-1 runs; a
   sweep-c1908 round is a whole 2,409-fault sweep.  The watchdog allows
   four times window plus allowance. *)
let overhead_s = function
  | "sweep-c1908" -> 32.
  | "ladder-c499" -> 16.
  | "serve-mixed" -> 10.
  | _ -> 8.

let spec_file = "BENCHMARK.json"
let expected_digests = "benchmark/expected/digests.json"
let work_root = ".benchwork"

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : string;  (** "0", "1", or the Chrome trace output path *)
  out : string option;
  bless : bool;
  data : string;
  dpa : string;
  child : string option;  (** the work directory of a child process *)
}

let usage () =
  prerr_endline
    "usage: run.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|FILE] [--out FILE] \
     [--bless] [--data DIR] [--dpa PATH]\n\
    \       run.exe compare A.json... -- B.json...";
  exit 2

let parse_opts args =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest when List.mem_assoc w workloads -> go { o with workload = Some w } rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None -> go { o with seed = int_of_string n } rest
    | "--seconds" :: s :: rest when Option.fold ~none:false ~some:(fun f -> f > 0.) (float_of_string_opt s) ->
      go { o with seconds = float_of_string s } rest
    | "--trace" :: t :: rest -> go { o with trace = t } rest
    | "--out" :: f :: rest -> go { o with out = Some f } rest
    | "--bless" :: rest -> go { o with bless = true } rest
    | "--data" :: d :: rest -> go { o with data = d } rest
    | "--dpa" :: p :: rest -> go { o with dpa = p } rest
    | "--child" :: d :: rest -> go { o with child = Some d } rest
    | arg :: _ ->
      Printf.eprintf "run.exe: unexpected argument %S\n" arg;
      usage ()
  in
  go
    {
      workload = None;
      seed = 1;
      seconds = 12.;
      trace = "0";
      out = None;
      bless = false;
      data = "data";
      dpa = "_build/default/bin/dpa.exe";
      child = None;
    }
    args

let traced o = o.trace <> "0"
let trace_file o = if o.trace = "0" || o.trace = "1" then None else Some o.trace

let write_file path text =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc text;
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Child: run one workload                                             *)

let child o work name =
  (* Its own process group, so the watchdog can stop it together with
     any daemon it spawned. *)
  (try ignore (Unix.setsid ()) with Unix.Unix_error _ -> ());
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let digests =
    if o.bless then Workloads.Record (ref [])
    else
      Workloads.Check
        (List.filter_map
           (fun (k, v) -> Option.map (fun d -> (k, d)) (Json.to_str v))
           (Json.to_obj (Json.of_file expected_digests)))
  in
  let cfg =
    {
      Workloads.seed = o.seed;
      seconds = o.seconds;
      traced = traced o;
      scale = Workloads.Full;
      data_dir = o.data;
      work_dir = work;
      dpa = o.dpa;
      digests;
      per_layer = Spec.load ~path:spec_file "per_layer";
    }
  in
  Trace.enabled := cfg.Workloads.traced;
  let result = (List.assoc name workloads) cfg in
  write_file (Filename.concat work "result.json") (Json.to_string (Metrics.to_json result));
  if cfg.Workloads.traced then
    write_file (Filename.concat work "trace.json") (Json.to_string (Trace.to_chrome (Trace.spans ())));
  (match digests with
  | Workloads.Record r ->
    write_file (Filename.concat work "digests.json")
      (Json.to_string (Json.Obj (List.map (fun (k, d) -> (k, Json.Str d)) !r)))
  | _ -> ());
  exit 0

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)

let failed_result =
  { Metrics.correct = false; attempted = 1; failed = 1; metrics = [] }

let supervise o ~cap name =
  let work = Filename.concat work_root (Printf.sprintf "%d-%s" (Unix.getpid ()) name) in
  Proc.mkdir_p work;
  let args =
    [ "--child"; work; "--workload"; name; "--seed"; string_of_int o.seed; "--seconds";
      Printf.sprintf "%.17g" o.seconds; "--trace"; (if traced o then "1" else "0"); "--data"; o.data;
      "--dpa"; o.dpa ]
    @ if o.bless then [ "--bless" ] else []
  in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin Unix.stderr Unix.stderr in
  let status = Proc.wait_until ~kill_group:true pid ~deadline:(Unix.gettimeofday () +. cap) in
  Proc.stop_group pid;
  let read f = Json.of_file (Filename.concat work f) in
  let result =
    match status with
    | Proc.Exited 0 -> (
      try Metrics.of_json (read "result.json")
      with Sys_error _ | Json.Parse_error _ -> failed_result)
    | Proc.Exited c ->
      Printf.eprintf "%s: workload process exited with status %d\n%!" name c;
      failed_result
    | Proc.Signaled s ->
      Printf.eprintf "%s: workload process killed by signal %d\n%!" name s;
      failed_result
    | Proc.Timed_out ->
      Printf.eprintf "%s: workload process exceeded its %.0f s watchdog\n%!" name cap;
      failed_result
  in
  let events =
    match read "trace.json" with
    | j -> Json.to_list (Option.value (Json.member "traceEvents" j) ~default:Json.Null)
    | exception (Sys_error _ | Json.Parse_error _) -> []
  in
  let digests =
    match read "digests.json" with
    | j -> Json.to_obj j
    | exception (Sys_error _ | Json.Parse_error _) -> []
  in
  Proc.rm_rf work;
  (result, events, digests)

let bless digests =
  let old =
    match Json.of_file expected_digests with
    | j -> Json.to_obj j
    | exception (Sys_error _ | Json.Parse_error _) -> []
  in
  let merged =
    List.fold_left (fun acc (k, v) -> (k, v) :: List.remove_assoc k acc) old digests
    |> List.sort compare
  in
  Proc.mkdir_p (Filename.dirname expected_digests);
  write_file expected_digests (Json.to_string (Json.Obj merged))

let run o =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let names = match o.workload with Some w -> [ w ] | None -> List.map fst workloads in
  let started = Unix.gettimeofday () in
  let results =
    List.mapi
      (fun i name ->
        let cap = 4. *. (o.seconds +. overhead_s name) in
        (* A single-workload run must end within 180 s. *)
        let cap =
          if o.workload = None then cap
          else Float.min cap (170. -. (Unix.gettimeofday () -. started))
        in
        let result, events, digests = supervise o ~cap name in
        let events =
          List.map
            (function
              | Json.Obj fields ->
                Json.Obj (("pid", Json.Num (float_of_int (i + 1))) :: List.remove_assoc "pid" fields)
              | e -> e)
            events
        in
        let oc = if o.workload = None then stdout else stderr in
        Metrics.pp_table oc ~workload:name result;
        flush oc;
        (name, result, events, digests))
      names
  in
  Option.iter
    (fun path ->
      write_file path
        (Json.to_string
           (Json.Obj [ ("traceEvents", Json.Arr (List.concat_map (fun (_, _, e, _) -> e) results)) ])))
    (trace_file o);
  if o.bless then bless (List.concat_map (fun (_, _, _, d) -> d) results);
  (try Unix.rmdir work_root with Unix.Unix_error _ -> ());
  let all =
    Json.Obj
      [
        ("seed", Json.Num (float_of_int o.seed));
        ("seconds", Json.Num o.seconds);
        ("traced", Json.Bool (traced o));
        ("workloads", Json.Obj (List.map (fun (n, r, _, _) -> (n, Metrics.to_json r)) results));
      ]
  in
  Option.iter (fun path -> write_file path (Json.to_string all)) o.out;
  (match results with
  | [ (_, r, _, _) ] when o.workload <> None -> print_endline (Json.to_string (Metrics.to_json ~samples:false r))
  | _ -> print_endline (Json.to_string all));
  exit (if List.for_all (fun (_, r, _, _) -> r.Metrics.correct) results then 0 else 1)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)

(* Each run file's results by workload; a workload the run has no
   result for is [None], so run i of A stays paired with run i of B. *)
let load_set paths =
  List.map
    (fun path ->
      let results =
        List.map
          (fun (w, j) -> (w, Metrics.of_json j))
          (Json.to_obj (Option.value (Json.member "workloads" (Json.of_file path)) ~default:Json.Null))
      in
      fun w -> List.assoc_opt w results)
    paths

let compare_cmd a_paths b_paths =
  let e2e = Spec.load ~path:spec_file "end_to_end" in
  let a = load_set a_paths and b = load_set b_paths in
  let runs set w = List.map (fun run -> run w) set in
  let values set w name =
    List.map
      (fun r -> Option.bind r (fun r -> Option.map (fun m -> m.Metrics.value) (Metrics.find r name)))
      (runs set w)
  in
  let bad = ref false in
  Printf.printf "%-14s %-14s %12s %25s %12s %25s %6s  %s\n" "workload" "metric" "median A" "quartiles A"
    "median B" "quartiles B" "wins" "verdict";
  List.iter
    (fun (w, _) ->
      let ha = Compare.health (runs a w) and hb = Compare.health (runs b w) in
      let b_fails = Compare.fails_more ~a:ha ~b:hb in
      if b_fails then bad := true;
      let side (h : Compare.health) =
        Printf.sprintf "%d/%d failed, %d of %d runs broken" h.failed h.attempted h.broken h.runs
      in
      Printf.printf "%-14s %-14s A %s; B %s  %s\n" w "operations" (side ha) (side hb)
        (if b_fails then "regressed" else "ok");
      (* A metric no run reports (the end-to-end metrics of traced runs)
         has no row. *)
      List.iter
        (fun (m : Spec.metric) ->
          let va = values a w m.name and vb = values b w m.name in
          if List.exists Option.is_some (va @ vb) then begin
            let row = Compare.judge ~b_fails ~higher:m.higher ~bound:m.bound va vb in
            if row.Compare.verdict = Compare.Regressed then bad := true;
            let q (x, y) = Printf.sprintf "[%.6g, %.6g]" x y in
            Printf.printf "%-14s %-14s %12.6g %25s %12.6g %25s %3d/%-2d  %s\n" w m.name
              row.Compare.median_a (q row.Compare.quartiles_a) row.Compare.median_b
              (q row.Compare.quartiles_b) row.Compare.wins row.Compare.pairs
              (Compare.verdict_to_string row.Compare.verdict)
          end)
        e2e)
    workloads;
  (* Deterministic counters must match exactly across every run given. *)
  List.iter
    (fun w ->
      let results = List.filter_map Fun.id (runs a w @ runs b w) in
      let names =
        List.sort_uniq compare
          (List.concat_map
             (fun r ->
               List.filter_map
                 (fun m -> if Compare.is_deterministic ~workload:w m then Some m.Metrics.name else None)
                 r.Metrics.metrics)
             results)
      in
      let differing =
        List.filter_map
          (fun name ->
            match List.sort_uniq compare (List.filter_map Fun.id (values a w name @ values b w name)) with
            | [ _ ] | [] -> None
            | vs -> Some (name, vs))
          names
      in
      List.iter
        (fun (name, vs) ->
          Printf.printf "%-14s %-28s counter differs across runs: %s\n" w name
            (String.concat ", " (List.map (Printf.sprintf "%.17g") vs)))
        differing;
      if differing <> [] then bad := true
      else if names <> [] then
        Printf.printf "%-14s %d counters identical across %d runs\n" w (List.length names)
          (List.length results))
    Compare.deterministic_workloads;
  exit (if !bad then 1 else 0)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> (
    let rec split acc = function
      | "--" :: b -> (List.rev acc, b)
      | x :: rest -> split (x :: acc) rest
      | [] -> (List.rev acc, [])
    in
    match split [] rest with
    | (_ :: _ as a), (_ :: _ as b) -> compare_cmd a b
    | _ -> usage ())
  | args -> (
    let o = parse_opts args in
    match (o.child, o.workload) with
    | Some work, Some name -> child o work name
    | Some _, None -> usage ()
    | None, _ -> run o)
