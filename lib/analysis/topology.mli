(** Static topology oracle: predicts BDD behaviour from the netlist DAG
    alone, before any BDD exists.

    The pass decomposes the circuit into fanout-free regions, detects
    the polynomial circuit classes of the BDD literature (trees, parity
    and adder chains — Drechsler, arXiv:2104.03024), estimates per-cone
    BDD width from the support-interval cut profile ({!Ffr}), and
    synthesizes a variable order ({!Ordering.oracle}).  Its outputs
    feed two consumers: the engine default order and lint rules
    DP011–DP013. *)

type circuit_class =
  | Tree
      (** no reconvergent stem: every output cone is a tree (after
          branch duplication) — linear-size BDDs under a DFS order *)
  | Parity_chain
      (** XOR/XNOR-dominated: parity is linear under {e any} order *)
  | Adder_chain
      (** bounded estimated cutwidth relative to support — ripple-like
          chains whose BDDs stay polynomial *)
  | Fanout_reconvergent
      (** reconvergent fanout with unbounded estimated width *)
  | General

val class_name : circuit_class -> string

type cone = {
  output : int;  (** PO net index *)
  output_name : string;
  support : int;  (** structural support size (primary inputs in cone) *)
  gates : int;  (** nets in the cone *)
  cutwidth : int;  (** support-interval cutwidth under the report order *)
  predicted_log2_width : int;
      (** [max_b min(above_b, below_b, cut_b)] — log2 of the predicted
          peak BDD level width for this cone *)
  predicted_nodes : float;
      (** sum over levels of the predicted width — the per-cone peak
          scratch estimate that calibrates against
          [scratch_peak_nodes] *)
  hostility : float;  (** [predicted_log2_width / (support / 2)], 0..1 *)
}

type t = {
  circuit : Circuit.t;
  klass : circuit_class;
  ffrs : Ffr.t;
  reconvergent_stems : int list;
  cones : cone array;  (** one per PO, in output declaration order *)
  order : int array;  (** synthesized order (level -> input position) *)
  winner : Ordering.heuristic;  (** heuristic behind {!field-order} *)
  est_cutwidth : int;  (** global cutwidth under {!field-order} *)
  natural_cutwidth : int;
  confident : bool;
      (** oracle confidence: strong enough to override [Natural] *)
  xor_fraction : float;  (** XOR/XNOR share of the logic gates *)
}

val analyze : Circuit.t -> t
(** Linear-ish: one FFR sweep, one reconvergence check per stem, one
    cut profile per candidate order, one per-PO cone pass. *)

val predicted_peak : t -> float
(** Max {!cone.predicted_nodes} over all cones — the circuit-level
    blowup prediction used by the [bench topo] calibration lane. *)

val to_json : t -> string
val pp : Format.formatter -> t -> unit
