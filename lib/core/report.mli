(** Synthesis reports: the metrics the paper's evaluation tables use. *)

type analog_summary = {
  an_worst_margin : float;
      (** worst read margin across every output and evaluated point;
          negative means some output is functionally wrong *)
  an_max_iterations : int;  (** most CG iterations any solve needed *)
  an_max_residual : float;  (** worst relative residual accepted *)
  an_max_condition : float;
      (** worst diagonal conditioning estimate seen *)
  an_fallbacks : int;
      (** solves that fell back to dense Gaussian elimination *)
  an_unconverged : int;
      (** solves no method in the chain brought under tolerance *)
}
(** Electrical solver diagnostics from a {!Crossbar.Margin} analysis,
    carried alongside the logical metrics when a report's design was
    margin-checked. *)

type t = {
  circuit : string;
  bdd_nodes : int;  (** graph nodes = BDD nodes without the 0-terminal *)
  bdd_edges : int;
  rows : int;
  cols : int;
  semiperimeter : int;
  max_dimension : int;
  area : int;
  vh_count : int;
  power_literals : int;
      (** programmed variable literals — the worst-case number of device
          writes, the power proxy of Figs 12/13 *)
  delay_steps : int;  (** rows + 1 (§VIII) *)
  synthesis_time : float;  (** seconds, whole pipeline *)
  label_time : float;  (** seconds inside the labeling solver *)
  optimal : bool;
  gap : float;  (** relative optimality gap of the labeling, 0 if optimal *)
  method_name : string;
  gamma : float;
  solver_path : string list;
      (** solver rungs attempted by the pipeline's labeling ladder, in
          order; the last produced this labeling. Singleton when the
          first choice succeeded. *)
  solver_retries : int;
      (** the rungs that ran and lost: [List.length solver_path - 1] *)
  deadline_hit : bool;
      (** the run's work budget (e.g. a [--deadline]) exhausted during
          synthesis: the design is the verified degraded incumbent, not
          the full-effort result. The CLI maps this to a non-zero exit
          code. *)
  bdd_stats : Bdd.Manager.stats option;
      (** unique-table / apply-cache counters of the manager the circuit's
          SBDD was built in; [None] when synthesis started from a
          pre-built graph with no live manager *)
  analog : analog_summary option;
      (** electrical margin/solver diagnostics; [None] until a margin
          analysis (e.g. {!Pipeline.harden}) has run on the design *)
}

val analog_of_analysis : Crossbar.Margin.analysis -> analog_summary
(** Condense a margin analysis into report diagnostics. *)

val with_analog : t -> Crossbar.Margin.analysis -> t
(** The report with [analog] filled from the analysis. *)

val of_design :
  ?solver_path:string list ->
  ?deadline_hit:bool ->
  ?bdd_stats:Bdd.Manager.stats ->
  circuit:string ->
  bdd_graph:Types.bdd_graph ->
  labeling:Types.labeling ->
  synthesis_time:float ->
  Crossbar.Design.t ->
  t

val rungs : t -> string
(** The watchdog rung chain, e.g. ["mip->heuristic"]. Singleton paths
    render as the bare method name. *)

val path_pristine : string list -> bool
(** Whether a {!t.solver_path} is free of timing-dependent degradation —
    a single rung — and its result therefore safe to cache for any
    future identical request. *)

val check : t -> t
(** Assert that [solver_retries] counts the rungs of [solver_path] that
    ran and lost (the one place it is enforced) and return the
    report. *)

val header : string
(** Column header for {!pp_row}. *)

val pp_row : Format.formatter -> t -> unit
(** One fixed-width table row; after watchdog fallbacks the method
    column shows the whole rung chain ({!rungs}) rather than only the
    winning rung. *)

val pp : Format.formatter -> t -> unit
