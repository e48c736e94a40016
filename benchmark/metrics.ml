(* Workload results: named metrics with units and sample counts, the
   operation tally, and their JSON renderings. *)

type metric = { name : string; unit : string; value : float; samples : int }

type result = {
  correct : bool;  (** every correctness check passed *)
  attempted : int;  (** faults, requests and checks attempted *)
  failed : int;  (** of those: unanswered, refused, or failed checks *)
  metrics : metric list;
}

let metric ?(samples = 1) name unit value = { name; unit; value; samples }

(* Per-round samples keyed by metric name. *)
module Acc = struct
  type t = (string, float list) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let add t name v =
    Hashtbl.replace t name (v :: Option.value (Hashtbl.find_opt t name) ~default:[])

  let samples t name = List.rev (Option.value (Hashtbl.find_opt t name) ~default:[])

  (* Median over rounds, or 0 when the quantity was never recorded (the
     layer did not run on this workload). *)
  let median t name = match samples t name with [] -> 0. | l -> Stats.median l

  let count t name = List.length (samples t name)
end

let find result name = List.find_opt (fun m -> m.name = name) result.metrics

(* A result as JSON: the keys [correct], [attempted], [failed] and
   [metrics], each metric an object of [value] and [unit].  Result files
   kept for [compare] also carry each metric's sample count; the result
   line a single-workload run prints ([~samples:false]) has exactly those
   keys and no more. *)
let to_json ?(samples = true) r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Json.Obj
                   ([ ("value", Json.Num m.value); ("unit", Json.Str m.unit) ]
                   @ if samples then [ ("samples", Json.Num (float_of_int m.samples)) ] else [])
               ))
             r.metrics) );
    ]

let of_json j =
  let num k v = Option.value (Option.bind (Json.member k v) Json.to_num) ~default:0. in
  {
    correct = Json.member "correct" j = Some (Json.Bool true);
    attempted = int_of_float (num "attempted" j);
    failed = int_of_float (num "failed" j);
    metrics =
      List.map
        (fun (name, v) ->
          {
            name;
            unit = Option.value (Option.bind (Json.member "unit" v) Json.to_str) ~default:"";
            value = num "value" v;
            samples = int_of_float (num "samples" v);
          })
        (Option.fold ~none:[] ~some:Json.to_obj (Json.member "metrics" j));
  }

let pp_table oc ~workload r =
  Printf.fprintf oc "%s: %s, %d attempted, %d failed\n" workload
    (if r.correct then "correct" else "INCORRECT")
    r.attempted r.failed;
  List.iter
    (fun m ->
      Printf.fprintf oc "  %-32s %16.6g %-6s (n=%d)\n" m.name m.value m.unit m.samples)
    r.metrics
