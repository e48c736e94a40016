type circuit_class =
  | Tree
  | Parity_chain
  | Adder_chain
  | Fanout_reconvergent
  | General

let class_name = function
  | Tree -> "tree"
  | Parity_chain -> "parity-chain"
  | Adder_chain -> "adder-chain"
  | Fanout_reconvergent -> "fanout-reconvergent"
  | General -> "general"

type cone = {
  output : int;
  output_name : string;
  support : int;
  gates : int;
  cutwidth : int;
  predicted_log2_width : int;
  predicted_nodes : float;
  hostility : float;
}

type t = {
  circuit : Circuit.t;
  klass : circuit_class;
  ffrs : Ffr.t;
  reconvergent_stems : int list;
  cones : cone array;
  order : int array;
  winner : Ordering.heuristic;
  est_cutwidth : int;
  natural_cutwidth : int;
  confident : bool;
  xor_fraction : float;
}

let ilog2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* Width bound at a boundary: paths from the root cap it at 2^above,
   remaining-variable subfunctions at ~2^below, and the crossing-net
   count at 2^cut.  Exponents only — sizes are summed in float space. *)
let cone_of_output c ~spans ~inputs po name =
  let cone_nets = Circuit.fanin_cone c po in
  let gates = List.length cone_nets in
  let support_levels =
    List.filter_map
      (fun g ->
        if Circuit.is_input c g then
          let lo, hi = spans.(g) in
          if hi >= lo then Some lo else None
        else None)
      cone_nets
  in
  let support = List.length support_levels in
  let cone_spans =
    Array.of_list (List.map (fun g -> spans.(g)) cone_nets)
  in
  let profile = Ffr.profile_of_spans ~inputs cone_spans in
  let is_support = Array.make inputs false in
  List.iter (fun l -> is_support.(l) <- true) support_levels;
  let above = ref 0 in
  let plog2 = ref 0 and pnodes = ref (float_of_int (max 1 support)) in
  Array.iteri
    (fun b cut ->
      if is_support.(b) then incr above;
      let w = min cut (min !above (support - !above)) in
      if w > !plog2 then plog2 := w;
      pnodes := !pnodes +. (2.0 ** float_of_int (min 50 w)))
    profile;
  let cutwidth = Array.fold_left max 0 profile in
  let hostility =
    if support <= 1 then 0.0
    else
      min 1.0 (float_of_int !plog2 /. (float_of_int support /. 2.0))
  in
  {
    output = po;
    output_name = name;
    support;
    gates;
    cutwidth;
    predicted_log2_width = !plog2;
    predicted_nodes = !pnodes;
    hostility;
  }

let analyze c =
  let inputs = Circuit.num_inputs c in
  let order, winner, est_cutwidth, confident = Ordering.oracle c in
  let natural_cutwidth =
    Ffr.cutwidth c ~order:(Ordering.order Ordering.Natural c)
  in
  let ffrs = Ffr.decompose c in
  let reconvergent_stems = Ffr.reconvergent_stems c in
  let logic = ref 0 and xors = ref 0 in
  for g = 0 to Circuit.num_gates c - 1 do
    match (Circuit.gate c g).Circuit.kind with
    | Gate.Input | Gate.Const0 | Gate.Const1 -> ()
    | Gate.Xor | Gate.Xnor ->
      incr logic;
      incr xors
    | _ -> incr logic
  done;
  let xor_fraction =
    if !logic = 0 then 0.0 else float_of_int !xors /. float_of_int !logic
  in
  let spans = Ffr.support_spans c ~order in
  let cones =
    Array.map
      (fun po ->
        cone_of_output c ~spans ~inputs po (Circuit.gate c po).Circuit.name)
      c.Circuit.outputs
  in
  let klass =
    if reconvergent_stems = [] then Tree
    else if xor_fraction >= 0.7 then Parity_chain
    else if est_cutwidth <= max 8 (4 * ilog2 (inputs + 1)) then Adder_chain
    else Fanout_reconvergent
  in
  {
    circuit = c;
    klass;
    ffrs;
    reconvergent_stems;
    cones;
    order;
    winner;
    est_cutwidth;
    natural_cutwidth;
    confident;
    xor_fraction;
  }

let predicted_peak t =
  Array.fold_left (fun acc k -> max acc k.predicted_nodes) 0.0 t.cones

(* A cone is hostile for a per-fault budget when its predicted scratch
   is beyond the ladder's first doubling: faults touching it are
   expected to climb the whole ladder, so jumping them straight to the
   top rung costs nothing and saves the intermediate rungs.  The
   pre-flag is bit-identity-safe whatever this predicts (see
   [Engine.sweep ?hostile]), so the factor errs toward
   flagging. *)
let hostile_factor = 4.0

let hostile_cones t ~budget =
  Array.to_list t.cones
  |> List.filter (fun k ->
         k.predicted_nodes >= hostile_factor *. float_of_int budget)

let hostile_sites t ~budget =
  let c = t.circuit in
  let n = Circuit.num_gates c in
  let hostile_po = Hashtbl.create 16 in
  List.iter
    (fun k -> Hashtbl.replace hostile_po k.output ())
    (hostile_cones t ~budget);
  let sites = Array.make n false in
  if Hashtbl.length hostile_po > 0 then
    for g = 0 to n - 1 do
      sites.(g) <-
        List.exists (Hashtbl.mem hostile_po) (Circuit.output_cone c g)
    done;
  sites

let hostile_fault t ~budget =
  let sites = hostile_sites t ~budget in
  fun fault ->
    match Fault.sites fault with
    | exception _ -> false
    | fs ->
      List.exists
        (fun g -> g >= 0 && g < Array.length sites && sites.(g))
        fs

let to_json t =
  let b = Buffer.create 1024 in
  let c = t.circuit in
  Buffer.add_string b
    (Printf.sprintf
       "{\"circuit\":%S,\"class\":%S,\"inputs\":%d,\"gates\":%d,\"outputs\":%d,"
       c.Circuit.title (class_name t.klass) (Circuit.num_inputs c)
       (Circuit.num_gates c) (Circuit.num_outputs c));
  Buffer.add_string b
    (Printf.sprintf
       "\"ffr_heads\":%d,\"reconvergent_stems\":%d,\"xor_fraction\":%.3f,"
       (List.length t.ffrs.Ffr.heads)
       (List.length t.reconvergent_stems)
       t.xor_fraction);
  Buffer.add_string b
    (Printf.sprintf
       "\"order_winner\":%S,\"est_cutwidth\":%d,\"natural_cutwidth\":%d,\"confident\":%b,"
       (Ordering.name t.winner) t.est_cutwidth t.natural_cutwidth t.confident);
  Buffer.add_string b "\"order\":[";
  Array.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int p))
    t.order;
  Buffer.add_string b "],\"predicted_peak\":";
  Buffer.add_string b (Printf.sprintf "%.1f" (predicted_peak t));
  Buffer.add_string b ",\"cones\":[";
  Array.iteri
    (fun i k ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"output\":%S,\"support\":%d,\"gates\":%d,\"cutwidth\":%d,\"predicted_log2_width\":%d,\"predicted_nodes\":%.1f,\"hostility\":%.3f}"
           k.output_name k.support k.gates k.cutwidth k.predicted_log2_width
           k.predicted_nodes k.hostility))
    t.cones;
  Buffer.add_string b "]}";
  Buffer.contents b

let pp fmt t =
  let c = t.circuit in
  Format.fprintf fmt "@[<v>%s: class=%s inputs=%d gates=%d outputs=%d@,"
    c.Circuit.title (class_name t.klass) (Circuit.num_inputs c)
    (Circuit.num_gates c) (Circuit.num_outputs c);
  Format.fprintf fmt
    "ffr heads=%d reconvergent stems=%d xor fraction=%.2f@,"
    (List.length t.ffrs.Ffr.heads)
    (List.length t.reconvergent_stems)
    t.xor_fraction;
  Format.fprintf fmt
    "order: winner=%s est cutwidth=%d (natural %d) confident=%b@,"
    (Ordering.name t.winner) t.est_cutwidth t.natural_cutwidth t.confident;
  Format.fprintf fmt "predicted peak=%.0f nodes@," (predicted_peak t);
  Format.fprintf fmt "%-12s %7s %6s %9s %10s %15s %9s@," "output" "support"
    "gates" "cutwidth" "log2width" "pred.nodes" "hostility";
  Array.iter
    (fun k ->
      Format.fprintf fmt "%-12s %7d %6d %9d %10d %15.0f %9.3f@,"
        k.output_name k.support k.gates k.cutwidth k.predicted_log2_width
        k.predicted_nodes k.hostility)
    t.cones;
  Format.fprintf fmt "@]"
