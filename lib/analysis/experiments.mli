(** One entry point per paper artifact.  Each experiment returns the
    structured data series the corresponding figure or table plots, and
    the bench harness renders them; results are cached per circuit so
    that figures sharing an analysis (e.g. Figures 2 and 3) pay for it
    once. *)

type config = {
  bridge_sample : int;
      (** wire pairs sampled per large circuit (each yields an AND and an
          OR fault); the four small circuits use their full NFBF sets,
          as in the paper *)
  theta : float;  (** exponential distance parameter (paper §2.2) *)
  seed : int;
  bins : int;  (** histogram resolution *)
  domains : int;
      (** worker domains for fault analysis ({!Engine.sweep}), which
          also pick the sweep; results are bit-identical at any count *)
  scheduler : Engine.scheduler;
      (** ignored: read only by the repository benchmark, and deleted
          with ROADMAP item 4 *)
}

val default : config
(** 150 sampled pairs, theta 0.25, seed 42, 10 bins, as many domains as
    {!Parallel.available_domains} suggests.  Sweeps run with no
    per-fault resource caps: the paper's figures want every fault
    exact. *)

(** {1 Cached per-circuit analysis} *)

type circuit_run = {
  circuit : Circuit.t;
  engine : Engine.t;
  sa_results : Engine.result list;
      (** collapsed checkpoint faults (exact outcomes only) *)
  bf_results : Engine.result list;
      (** potentially detectable NFBFs (exact outcomes only) *)
  bf_faults : Bridge.t list;
  bf_sampled : Bridge.sample_stats option;  (** [None] = full enumeration *)
  degraded : Engine.outcome list;
      (** faults the sweeps could not analyse exactly (budget blow-ups or
          crashes, after retries); empty on the healthy benchmark suite *)
}

val run : ?config:config -> string -> circuit_run
(** Analyse one benchmark by name (memoised on name and config). *)

val bridge_faults : config -> Circuit.t -> Bridge.t list * Bridge.sample_stats option
(** The circuit's bridging-fault universe under a config: full NFBF
    enumeration for the four small circuits, layout-weighted sampling
    (with stats) for the rest — exactly what {!run} analyses. *)

val clear_cache : unit -> unit

(** {1 Paper artifacts} *)

val table1_verification : trials:int -> vars:int -> bool
(** Property check behind Table 1: on random functions, every Table-1
    rule agrees with direct faulty-function evaluation. *)

val fig1 : ?config:config -> unit -> (string * Histogram.t) list
(** Stuck-at detectability histograms for c95 and alu74181. *)

val fig2 : ?config:config -> unit -> Trends.row list
(** Stuck-at detectability trends over the whole suite. *)

val fig3 : ?config:config -> unit -> Bathtub.point list
(** Stuck-at detectability vs max levels to PO, c1355. *)

val fig3_pi : ?config:config -> unit -> Bathtub.point list
(** Companion curve by PI level (the paper's text: noisier). *)

val fig4 : ?config:config -> unit -> Histogram.t
(** Stuck-at adherence histogram, alu74181. *)

val fig5 : ?config:config -> unit -> (string * Bridge_class.summary list) list
(** Per circuit: proportions of AND / OR NFBFs with stuck-at behaviour. *)

val fig6 : ?config:config -> unit -> Histogram.t * Histogram.t
(** Bridging detectability histograms for c95 (AND, OR). *)

val fig7 : ?config:config -> unit -> Trends.row list
(** Bridging detectability trends over the whole suite. *)

val fig8 : ?config:config -> unit -> Bathtub.point list * Bathtub.point list
(** Bridging detectability vs max levels to PO, c1355 (AND, OR). *)

val po_observability : ?config:config -> unit -> (string * Po_stats.summary) list
(** §4.1's "justification to the closest PO" statistic, per circuit. *)

val adherence_values : Engine.result list -> float list
(** Adherence of the detectable faults in a result list. *)

val split_bridge_results :
  circuit_run -> Engine.result list * Engine.result list
(** Bridging results split into (wired-AND, wired-OR). *)
