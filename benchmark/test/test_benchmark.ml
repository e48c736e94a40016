(* The benchmark's own tooling: order statistics, span self time,
   host-speed correction, compare verdicts, and a miniature run of every
   workload's code on c17 whose results must carry every metric
   BENCHMARK.json declares. *)

open Dpbench

let check = Alcotest.check
let float_t = Alcotest.float 1e-12

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)

let test_percentiles () =
  let l = [ 15.; 20.; 35.; 40.; 50. ] in
  List.iter
    (fun (p, want) -> check float_t (Printf.sprintf "p%g" p) want (Stats.percentile p l))
    [ (5., 15.); (30., 20.); (40., 20.); (50., 35.); (100., 50.) ];
  let hundred = List.init 100 (fun i -> float_of_int (i + 1)) in
  check float_t "p50 of 1..100" 50. (Stats.percentile 50. hundred);
  check float_t "p99 of 1..100" 99. (Stats.percentile 99. hundred);
  check float_t "median, even count" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  check float_t "median, odd count" 3. (Stats.median [ 5.; 1.; 3. ])

(* Expected values are Python's statistics.quantiles(values, n=4). *)
let test_quartiles () =
  let q l = Stats.quartiles l in
  check (Alcotest.pair float_t float_t) "1..4" (1.25, 3.75) (q [ 4.; 3.; 2.; 1. ]);
  check (Alcotest.pair float_t float_t) "1..10" (2.75, 8.25)
    (q (List.init 10 (fun i -> float_of_int (i + 1))));
  (* Two samples: Python extrapolates past both ends. *)
  check (Alcotest.pair float_t float_t) "two samples" (0.75, 2.25) (q [ 1.; 2. ]);
  check float_t "relative spread" (5.5 /. 5.5) (Stats.relative_spread (List.init 10 (fun i -> float_of_int (i + 1))))

let test_binomial_tail () =
  check float_t "4 of 4 fair coins" (1. /. 16.) (Workloads.binomial_tail ~p:0.5 ~n:4 4);
  check float_t "0 of 4 fair coins" (1. /. 16.) (Workloads.binomial_tail ~p:0.5 ~n:4 0);
  check float_t "at least 1 of 2 fair coins" 0.75 (Workloads.binomial_tail ~p:0.5 ~n:2 1);
  (* The case a z = 5 Wilson interval gets wrong: one hit at p = 2^-18. *)
  let tail = Workloads.binomial_tail ~p:(ldexp 1. (-18)) ~n:4096 1 in
  check Alcotest.bool "one hit at 2^-18 is plausible" true (tail > 0.01 && tail < 0.02);
  check Alcotest.bool "forty hits at 2^-18 are not" true
    (Workloads.binomial_tail ~p:(ldexp 1. (-18)) ~n:4096 40 < 1e-7)

(* ------------------------------------------------------------------ *)
(* Span self time                                                      *)

let span id parent name start stop =
  { Trace.id; name; parent; group = 0; tid = 0; start; stop }

let test_self_time () =
  (* root [0,10] has children a [1,4] and b [3,6], which overlap; a has a
     child c [2,3]; d [8,12] sticks out past the root's end. *)
  let spans =
    [
      span 1 0 "root" 0. 10.;
      span 2 1 "a" 1. 4.;
      span 3 1 "b" 3. 6.;
      span 4 2 "c" 2. 3.;
      span 5 1 "d" 8. 12.;
    ]
  in
  let self = Trace.self_times spans in
  let of_name n = snd (List.find (fun (s, _) -> s.Trace.name = n) self) in
  check float_t "root: 10 minus the union [1,6] and [8,10]" 3. (of_name "root");
  check float_t "a: 3 minus its child" 2. (of_name "a");
  check float_t "b: no children" 3. (of_name "b");
  check float_t "c: leaf" 1. (of_name "c")

(* ------------------------------------------------------------------ *)
(* Host-speed correction                                               *)

let test_host_scale () =
  let r = Hostspeed.reference_s in
  (* Kernel runs of 10 ms over [0, 0.01] and of 20 ms over [10, 10.02]. *)
  let host = { Hostspeed.active = true; probes = [ (10., 10.02); (0., 0.01) ] } in
  let scale = Hostspeed.scale host in
  check float_t "between the runs: their mean time" (2. *. r /. 0.015) (scale (2., 4.));
  check float_t "the kernel's own time is cut out" (scale (9., 10.) +. scale (10.02, 11.)) (scale (9., 11.));
  check float_t "after the last run: its time alone" (0.98 *. r /. 0.02) (scale (10.02, 11.));
  check float_t "before the first run: its time alone" (0.5 *. r /. 0.01) (scale (-0.5, 0.));
  let idle = Hostspeed.create ~active:false in
  Hostspeed.probe idle;
  check float_t "an inactive timeline scales nothing" 1.5 (Hostspeed.scale idle (1., 2.5))

(* ------------------------------------------------------------------ *)
(* compare verdicts                                                    *)

let verdict = Alcotest.testable (Fmt.of_to_string Compare.verdict_to_string) ( = )
let some = List.map Option.some

let test_nine_in_ten () =
  let a = [ 100.; 101.; 99.; 100.; 102.; 98.; 100.; 101.; 99.; 100. ] in
  (* B is 10% better in nine pairs and 1% worse in one. *)
  let b = List.mapi (fun i x -> if i = 3 then x *. 0.99 else x *. 1.1) a in
  check verdict "9 of 10 wins, clear gap" Compare.Improved
    (Compare.judge ~higher:true ~bound:0.1 (some a) (some b)).Compare.verdict;
  let b8 = List.mapi (fun i x -> if i < 2 then x *. 0.99 else x *. 1.1) a in
  let row = Compare.judge ~higher:true ~bound:0.1 (some a) (some b8) in
  check Alcotest.int "8 wins" 8 row.Compare.wins;
  check verdict "8 of 10 wins is not a gain" Compare.Unchanged row.Compare.verdict

let test_ties () =
  let a = [ 5.; 5.; 5.; 5.; 5. ] in
  let row = Compare.judge ~higher:false ~bound:0.1 (some a) (some a) in
  check Alcotest.int "ties count for neither side" 0 row.Compare.wins;
  check verdict "identical runs" Compare.Unchanged row.Compare.verdict;
  check verdict "a count that moved at all, under a zero bound" Compare.Regressed
    (Compare.judge ~higher:true ~bound:0. (some [ 0.99; 0.99 ]) (some [ 0.98; 0.98 ])).Compare.verdict

let test_unresolved () =
  let a = [ 10.; 14.; 9.; 15.; 11. ] in
  let b = [ 12.; 9.; 16.; 10.; 13. ] in
  check verdict "spread wider than the bound" Compare.Unresolved
    (Compare.judge ~higher:false ~bound:0.05 (some a) (some b)).Compare.verdict;
  check verdict "tight runs, 20% slower" Compare.Regressed
    (Compare.judge ~higher:false ~bound:0.1 (some [ 10.; 10.1; 9.9 ]) (some [ 12.; 12.1; 11.9 ]))
      .Compare.verdict;
  check verdict "wide spread, but every B run beats every A run" Compare.Unchanged
    (Compare.judge ~higher:false ~bound:0.05 (some [ 20.; 30.; 40. ]) (some [ 17.; 18.; 19. ]))
      .Compare.verdict

(* Runs that crashed or failed a check: pairs stay aligned, the side
   without a value loses its pair, and a change that fails more than its
   parent is never improved. *)
let test_failures () =
  let a = [ 100.; 101.; 99.; 100.; 102.; 98.; 100.; 101.; 99.; 100. ] in
  let faster = List.map (fun x -> x *. 0.8) a in
  let holed = List.mapi (fun i x -> if i = 2 then None else Some x) faster in
  let row = Compare.judge ~higher:false ~bound:0.1 (some a) holed in
  check Alcotest.int "the crashed run loses its pair, the others stay paired" 9 row.Compare.wins;
  check verdict "a missing value leaves the row unresolved" Compare.Unresolved row.Compare.verdict;
  check verdict "a gain by a change that fails more" Compare.Unresolved
    (Compare.judge ~b_fails:true ~higher:false ~bound:0.1 (some a) (some faster)).Compare.verdict;
  let result ~correct ~failed = Some { Metrics.correct; attempted = 100; failed; metrics = [] } in
  let clean = List.init 3 (fun _ -> result ~correct:true ~failed:0) in
  let health = Compare.health in
  check Alcotest.bool "clean runs on both sides" false
    (Compare.fails_more ~a:(health clean) ~b:(health clean));
  check Alcotest.bool "one B run failed a check" true
    (Compare.fails_more ~a:(health clean)
       ~b:(health [ result ~correct:true ~failed:0; result ~correct:false ~failed:1; result ~correct:true ~failed:0 ]));
  check Alcotest.bool "one B run has no result" true
    (Compare.fails_more ~a:(health clean) ~b:(health [ None; result ~correct:true ~failed:0 ]));
  let h = health [ None; result ~correct:false ~failed:2; result ~correct:true ~failed:0 ] in
  check Alcotest.(list int) "runs, broken, attempted, failed" [ 3; 2; 200; 2 ]
    [ h.Compare.runs; h.Compare.broken; h.Compare.attempted; h.Compare.failed ]

(* ------------------------------------------------------------------ *)
(* Miniature runs                                                      *)

let declared section = Spec.load ~path:"../../BENCHMARK.json" section

let with_work_dir f =
  let dir = Filename.concat (Sys.getcwd ()) (Printf.sprintf "mini-%d" (Unix.getpid ())) in
  Proc.mkdir_p dir;
  Fun.protect ~finally:(fun () -> Proc.rm_rf dir) (fun () -> f dir)

(* The per-layer metrics each traced miniature run recorded at least
   once, by workload. *)
let measured : (string, string list) Hashtbl.t = Hashtbl.create 4

let mini (name, run) ~traced () =
  with_work_dir (fun work_dir ->
      Trace.reset ();
      Trace.enabled := traced;
      let cfg =
        {
          Workloads.seed = 3;
          seconds = 0.3;
          traced;
          scale = Workloads.Mini;
          data_dir = "../../data";
          work_dir;
          dpa = "../../bin/dpa.exe";
          digests = Workloads.Skip;
          per_layer = declared "per_layer";
        }
      in
      let r = run cfg in
      check Alcotest.bool "every check passed" true r.Metrics.correct;
      check Alcotest.int "nothing failed" 0 r.Metrics.failed;
      let reported = List.map (fun m -> (m.Metrics.name, m.Metrics.unit)) r.Metrics.metrics in
      List.iter
        (fun (d : Spec.metric) ->
          check
            Alcotest.(option string)
            ("reports " ^ d.name ^ " in its declared unit")
            (Some d.unit) (List.assoc_opt d.name reported))
        (declared (if traced then "per_layer" else "end_to_end"));
      if traced then
        Hashtbl.replace measured name
          (List.filter_map
             (fun m -> if m.Metrics.samples > 0 then Some m.Metrics.name else None)
             r.Metrics.metrics);
      (* The result line is valid JSON with exactly its four keys. *)
      let line = Json.of_string (Json.to_string (Metrics.to_json ~samples:false r)) in
      check
        Alcotest.(list string)
        "result keys"
        [ "correct"; "attempted"; "failed"; "metrics" ]
        (List.map fst (Json.to_obj line)))

let workloads =
  [
    ("sweep-c1908", Workloads.sweep_c1908);
    ("figures-small", Workloads.figures_small);
    ("ladder-c499", Workloads.ladder_c499);
    ("serve-mixed", Serve_load.run);
  ]

(* A declared per-layer metric that no workload measures would read 0
   everywhere: a name that drifted from the code that records it. *)
let test_every_layer_measured () =
  List.iter
    (fun ((name, _) as w) -> if not (Hashtbl.mem measured name) then mini w ~traced:true ())
    workloads;
  let all = List.concat (Hashtbl.fold (fun _ names acc -> names :: acc) measured []) in
  List.iter
    (fun (d : Spec.metric) ->
      check Alcotest.bool (d.name ^ " is measured by some workload") true (List.mem d.name all))
    (declared "per_layer")

let mini_cases =
  List.concat_map
    (fun ((name, _) as w) ->
      [
        Alcotest.test_case (name ^ " on c17") `Quick (mini w ~traced:false);
        Alcotest.test_case (name ^ " on c17, traced") `Quick (mini w ~traced:true);
      ])
    workloads
  @ [ Alcotest.test_case "every per-layer metric is measured" `Quick test_every_layer_measured ]

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "benchmark"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentiles;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "binomial tail" `Quick test_binomial_tail;
        ] );
      ("trace", [ Alcotest.test_case "span self time" `Quick test_self_time ]);
      ("hostspeed", [ Alcotest.test_case "interval correction" `Quick test_host_scale ]);
      ( "compare",
        [
          Alcotest.test_case "9-in-10 rule" `Quick test_nine_in_ten;
          Alcotest.test_case "ties" `Quick test_ties;
          Alcotest.test_case "unresolved and regressed" `Quick test_unresolved;
          Alcotest.test_case "failed runs" `Quick test_failures;
        ] );
      ("mini", mini_cases);
    ]
