(* The metrics BENCHMARK.json declares.  It is the one list of metric
   names and units: the traced run reports its per-layer metrics from
   it, [compare] takes its bounds from it, and the test checks the
   workloads against it. *)

type metric = { name : string; unit : string; higher : bool; bound : float }

let load ~path section =
  let str m k = Option.value (Option.bind (Json.member k m) Json.to_str) ~default:"" in
  List.map
    (fun m ->
      {
        name = str m "name";
        unit = str m "unit";
        higher = str m "better" = "higher";
        bound = Option.value (Option.bind (Json.member "bound" m) Json.to_num) ~default:0.;
      })
    (Json.to_list (Option.value (Json.member section (Json.of_file path)) ~default:Json.Null))
