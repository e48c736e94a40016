(* Verdicts for comparing two sets of runs — a parent commit's (A) and a
   change's (B), paired run by run in the order given, which should
   alternate which side ran first.  A run that crashed, timed out or
   failed a check may lack a workload or a metric; its place is kept as
   [None], so the pairs stay aligned. *)

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_to_string = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* The operations one side's runs of a workload attempted and failed. *)
type health = {
  runs : int;
  broken : int;  (** runs without a result for the workload, or with a failed check *)
  attempted : int;
  failed : int;
}

let health (runs : Metrics.result option list) =
  List.fold_left
    (fun h r ->
      match r with
      | None -> { h with runs = h.runs + 1; broken = h.broken + 1 }
      | Some (r : Metrics.result) ->
        {
          runs = h.runs + 1;
          broken = (h.broken + if r.correct then 0 else 1);
          attempted = h.attempted + r.attempted;
          failed = h.failed + r.failed;
        })
    { runs = 0; broken = 0; attempted = 0; failed = 0 }
    runs

let failed_share h = if h.attempted = 0 then 0. else float_of_int h.failed /. float_of_int h.attempted

(* A change whose runs are not all correct, or that fails a larger share
   of its operations than the parent, has regressed whatever its
   speed. *)
let fails_more ~a ~b = b.broken > 0 || failed_share b > failed_share a

type row = {
  median_a : float;
  median_b : float;
  quartiles_a : float * float;
  quartiles_b : float * float;
  wins : int;  (** pairs B won; ties count for neither side *)
  pairs : int;
  verdict : verdict;
}

(* - unresolved: some run of either side has no value, or B fails more
     than A ([b_fails]) while it would otherwise count as improved;
   - improved: B wins at least 9 in 10 pairs and its median beats A's by
     more than A's own interquartile spread;
   - otherwise, when either side's relative spread exceeds the bound,
     the data cannot tell: unresolved, unless every B run beats every A
     run (then unchanged);
   - regressed: B's median is worse than A's by more than [bound] of A's
     median;
   - unchanged: anything else.
   In a pair with one value missing, the side without it loses. *)
let judge ?(b_fails = false) ~higher ~bound a b =
  let better x y = if higher then x > y else x < y in
  let rec zip xs ys = match (xs, ys) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> [] in
  let pairs = zip a b in
  let b_wins = function
    | Some x, Some y -> better y x
    | None, Some _ -> true
    | _, None -> false
  in
  let wins = List.length (List.filter b_wins pairs) in
  let n = List.length pairs in
  let va = List.filter_map Fun.id a and vb = List.filter_map Fun.id b in
  let summary = function
    | [] -> (Float.nan, (Float.nan, Float.nan))
    | l -> (Stats.median l, Stats.quartiles l)
  in
  let ma, (q1a, q3a) = summary va and mb, quartiles_b = summary vb in
  let complete = va <> [] && vb <> [] && List.length va = List.length a && List.length vb = List.length b in
  let gain = if higher then mb -. ma else ma -. mb in
  let verdict =
    if not complete then Unresolved
    else if n > 0 && 10 * wins >= 9 * n && gain > q3a -. q1a then
      if b_fails then Unresolved else Improved
    else if Float.max (Stats.relative_spread va) (Stats.relative_spread vb) > bound then
      if List.for_all (fun y -> List.for_all (fun x -> better y x) va) vb then Unchanged
      else Unresolved
    else if -.gain > bound *. Float.abs ma then Regressed
    else Unchanged
  in
  { median_a = ma; median_b = mb; quartiles_a = (q1a, q3a); quartiles_b; wins; pairs = n; verdict }

(* Counters that must repeat exactly on every run: the work counts of the
   seed-independent one-domain workloads, and their exact share. *)
let deterministic_workloads = [ "sweep-c1908"; "ladder-c499" ]

let is_deterministic ~workload (m : Metrics.metric) =
  List.mem workload deterministic_workloads
  && (m.Metrics.name = "exact_share" || List.mem m.Metrics.unit [ "count"; "bytes" ])
