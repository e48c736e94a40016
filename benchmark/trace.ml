(* In-memory span recorder for the traced run.  A span is one timed call
   into a layer's public function, made from the benchmark's own code:
   name, start, stop, the span that caused it, and a group id shared by
   every span of one fault or request.  Spans are kept in memory and
   written once, at the end, as Chrome trace-event JSON (Perfetto opens
   it directly). *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  group : int;  (** shared by the spans of one fault or request; 0 = none *)
  tid : int;  (** trace lane: 0 for the workload, k for serve connection k *)
  start : float;
  stop : float;
}

(* Monotonic nanosecond clock, in seconds.  [Unix.gettimeofday] only
   resolves microseconds, too coarse for per-fault latencies of ~20 us. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let enabled = ref false
let next_id = ref 1
let stack : int list ref = ref []
let recorded : span list ref = ref []

let reset () =
  next_id := 1;
  stack := [];
  recorded := []

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let current () = match !stack with id :: _ -> id | [] -> 0

let record ?(parent = current ()) ?(group = 0) ?(tid = 0) ~start ~stop name =
  let id = fresh_id () in
  if !enabled then
    recorded := { id; name; parent; group; tid; start; stop } :: !recorded;
  id

(* Time [f] as a child of the innermost open span.  With tracing off
   this is a direct call. *)
let with_span ?group name f =
  if not !enabled then f ()
  else begin
    let parent = current () in
    let id = fresh_id () in
    stack := id :: !stack;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = now () in
        stack := List.tl !stack;
        let group = Option.value group ~default:0 in
        recorded :=
          { id; name; parent; group; tid = 0; start; stop } :: !recorded)
      f
  end

let spans () = List.rev !recorded

(* Self time: a span's duration minus the part of its interval that its
   children cover.  Children may overlap one another (two serve
   connections in flight at once), so coverage is the union of their
   intervals, clipped to the parent's. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s)
    spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (Float.max s.start c.start, Float.min s.stop c.stop))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (total, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (total +. (b -. a), b) else (total, reach))
          (0., neg_infinity) kids
      in
      (s, Float.max 0. (s.stop -. s.start -. covered)))
    spans

let to_chrome ?(pid = 1) spans =
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.start) infinity spans
  in
  let us t = Json.Num (Float.round ((t -. origin) *. 1e6)) in
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.Str s.name);
                   ("ph", Json.Str "X");
                   ("ts", us s.start);
                   ("dur", Json.Num (Float.round ((s.stop -. s.start) *. 1e6)));
                   ("pid", Json.Num (float_of_int pid));
                   ("tid", Json.Num (float_of_int s.tid));
                   ( "args",
                     Json.Obj
                       [
                         ("id", Json.Num (float_of_int s.id));
                         ("parent", Json.Num (float_of_int s.parent));
                         ("group", Json.Num (float_of_int s.group));
                       ] );
                 ])
             spans) );
      ("displayTimeUnit", Json.Str "ms");
    ]
