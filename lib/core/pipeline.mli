(** The end-to-end COMPACT flow (Fig 3): Boolean function → SBDD →
    graph pre-processing → VH-labeling → crossbar mapping.

    {b Reentrancy.} Every entry point is a pure function of its
    arguments: all solver state (BDD managers, MIP trees, RNG streams
    derived via {!Crossbar.Rng.derive}) is allocated per call, the only
    process-wide state touched is the [Obs] metric registry (whose cells
    are allocated once at module load, never per call) and an armed
    [Resilience.Inject] configuration. Two back-to-back calls in one
    process therefore return byte-identical designs, and a long-lived
    server ([compactd]) may call the pipeline repeatedly — or from a
    domain pool with per-request {!Resilience.Budget}s — without
    cross-request interference. *)

(** Which VH-labeling solver to run. *)
type solver =
  | Oct_exact  (** §VI-A: minimum OCT via vertex cover of G□K2 *)
  | Oct_greedy  (** linear-time transversal, for very large BDDs *)
  | Mip  (** §VI-B: weighted objective, branch & bound *)
  | Heuristic  (** OCT + Fig 7 local search on the weighted objective *)
  | Auto
      (** the labeling ladder: [Mip] below {!mip_node_threshold} graph
          nodes, otherwise [Heuristic], then the cheaper rungs down to
          [Oct_greedy], which always completes. The rungs run one after
          another until one is accepted: a rung that spends its budget
          without an optimality proof has only a best-so-far incumbent,
          so the next rung runs instead, and a rung that raises also
          falls through. {!Report.t.solver_path} lists the rungs that
          ran, e.g. ["mip->heuristic"]. *)

type options = {
  gamma : float;  (** objective weight (default 0.5, §VIII-A) *)
  solver : solver;  (** default [Auto] *)
  alignment : bool;  (** Eq 7 port alignment (default true, §VIII) *)
  time_limit : float;
      (** per-rung labeling cap in seconds (default 60). Under [Auto]
          each non-terminal rung gets half the run's remaining wall
          budget, never more than [time_limit], and the terminal
          [Oct_greedy] rung runs untimed. A rung that exhausts its
          budget without an optimality proof is discarded in favour of
          the next rung. Explicit solver choices and
          capacity-constrained runs get the whole remaining budget up
          to [time_limit] and are never substituted — a different
          method there would be silent. *)
  deadline : float option;
      (** end-to-end wall deadline in seconds for the whole run
          (default [None]). Opens a {!Resilience.Budget} that every
          stage receives a deterministic slice of: the BDD build keeps
          the budget's resource bounds but not the wall deadline (it
          must complete to produce anything), each non-terminal [Auto]
          rung gets half the remaining wall time (still capped by
          [time_limit]), and the terminal [Oct_greedy] rung always
          completes. A rung is skipped once the deadline has passed; if
          no rung produced an accepted labeling, [Oct_greedy] runs
          unbudgeted — so an expired deadline yields a verified degraded
          design with {!Report.t.deadline_hit} set, never a wedged run.
          An explicit [?budget] argument to the entry points overrides
          this field. *)
  bdd_node_limit : int;  (** abort threshold for BDD construction *)
  order : string list option;  (** variable order (default: heuristic) *)
  max_rows : int option;
      (** §III capacity constraint on wordlines; forces the MIP solver.
          {!Compact.Label_mip.Infeasible} escapes when unsatisfiable *)
  max_cols : int option;  (** same for bitlines *)
  jobs : int;
      (** a worker-domain count carried for callers that size their own
          pools from the options (default 1); no synthesis path reads
          it, and every labeling is sequential. *)
}

val default_options : options
val mip_node_threshold : int

val solver_name : solver -> string
(** Stable lowercase name (["oct"], ["oct-greedy"], ["mip"],
    ["heuristic"], ["auto"]) — the spelling used in
    {!Report.t.solver_path}, the CLI [--solver] flag, and the [compactd]
    wire protocol / cache key. *)

val solver_of_name : string -> solver option
(** Inverse of {!solver_name}; [None] for unknown spellings. *)

type result = {
  design : Crossbar.Design.t;
  labeling : Types.labeling;
  bdd_graph : Types.bdd_graph;
  report : Report.t;
}

val synthesize_graph :
  ?options:options ->
  ?budget:Resilience.Budget.t ->
  name:string ->
  Types.bdd_graph ->
  result
(** Label and map an already pre-processed graph. [budget] defaults to
    the budget implied by [options.deadline] (or unlimited); an
    escaping [Out_of_memory] is converted to
    [Resilience.Budget.Exhausted Memory]. *)

val synthesize_sbdd :
  ?options:options ->
  ?budget:Resilience.Budget.t ->
  name:string ->
  Bdd.Sbdd.t ->
  result

val synthesize :
  ?options:options ->
  ?budget:Resilience.Budget.t ->
  ?sift:bool ->
  Logic.Netlist.t ->
  result
(** Full flow from a netlist (single shared SBDD — the §VII-A default).
    With [~sift:true] (default false) the diagram comes from the
    variable-order step {!Bdd.Sbdd.improve}: built under
    [options.order] (default: the best static candidate, searched under
    the run's budget), then sifted under the run's budget.
    @raise Bdd.Manager.Size_limit if the BDD exceeds the node budget.
    @raise Resilience.Budget.Exhausted on cancellation or node/memory
    budget exhaustion during the BDD build (wall-deadline expiry instead
    degrades the labeling — see {!options.deadline}). *)

val synthesize_expr :
  ?options:options -> name:string -> Logic.Expr.t -> result
(** Single-output convenience wrapper. *)

val synthesize_separate_robdds :
  ?options:options ->
  ?budget:Resilience.Budget.t ->
  Logic.Netlist.t ->
  result list * Crossbar.Design.t
(** The multiple-ROBDD mode of Table III / prior work: one single-output
    ROBDD and crossbar per output, plus their diagonal merge sharing one
    input wordline. Alignment is forced on (the merge requires ports on
    wordlines). *)

val merge_diagonal : Crossbar.Design.t list -> Crossbar.Design.t
(** Block-diagonal composition of single-function designs, fusing all
    input wordlines into one shared bottom row (the paper's Fig 8(a)).
    @raise Invalid_argument if a design's input is not a [Row], or on an
    empty list. *)

type repair_result = {
  base : result;  (** the unconstrained synthesis the repair starts from *)
  repair : Repair.report;
}

val repair :
  ?options:options ->
  ?budget:Resilience.Budget.t ->
  defects:Crossbar.Defect_map.t ->
  Logic.Netlist.t ->
  repair_result
(** Synthesise [netlist] and climb the {!Repair} escalation ladder to
    fit the design onto the faulty array [defects]: permutation
    placement, spare consumption, capacity-constrained resynthesis, and
    finally a per-output graceful-degradation report. Every accepted
    design is functionally verified — the result is never silently
    wrong.
    @raise Bdd.Manager.Size_limit as {!synthesize}. *)

(** {1 Variation-aware hardening}

    Logically equivalent designs are not electrically equivalent: the
    labeling's gamma trade-off changes the geometry (and with it sneak
    leakage), and wordline/bitline permutations change the wire distance
    every read path travels. [harden] enumerates such variants, scores
    each by its worst-case read margin over the deterministic
    {!Crossbar.Variation.corner}s of a variation spec, and returns the
    design that degrades last. *)

type harden_options = {
  spec : Crossbar.Variation.spec;  (** variation model to harden against *)
  margin_spec : float;
      (** required worst-corner margin per output (default 0: merely
          functional at every corner) *)
  analog_params : Crossbar.Analog.params;
  analog_opts : Crossbar.Analog.solver_opts;
  seed : int;  (** threads every margin/MC sample through {!Crossbar.Rng} *)
  margin_trials : int;
      (** assignments per corner analysis beyond the exhaustive
          threshold (default 24) *)
  mc_trials : int;
      (** Monte-Carlo yield budget on the chosen design; 0 skips the MC
          stage (default 64) *)
  alt_gammas : float list;
      (** labeling variants re-labeled on the shared BDD graph *)
  alt_solvers : solver list;  (** solver variants, same graph *)
  permutations : bool;
      (** also score {!Place.margin_candidates} of every labeling *)
  jobs : int;
      (** domain-pool width for candidate scoring and the Monte-Carlo
          stage (default 1). Results merge in generation order, so the
          ranking, chosen design, and MC report are identical for any
          jobs count under a fixed seed. *)
}

val default_harden_options : harden_options

type candidate = {
  cand_label : string;
      (** e.g. ["base"], ["gamma=1.00/rev-rows"], ["heuristic"] *)
  cand_design : Crossbar.Design.t;
  cand_worst : float;  (** min margin over corners and outputs *)
  cand_typical : float;  (** margin at the [Typical] corner *)
  cand_corners : (Crossbar.Variation.corner * Crossbar.Margin.analysis) list;
}

type harden_result = {
  base : result;  (** the unhardened synthesis all variants derive from *)
  candidates : candidate list;  (** every variant scored, best first *)
  chosen : candidate;
  failing_outputs : (string * float) list;
      (** outputs of the chosen design whose worst-corner margin misses
          [margin_spec], with that margin — the graceful-degradation
          report when even the best variant cannot meet the spec *)
  meets_spec : bool;  (** [failing_outputs = []] *)
  mc : Crossbar.Margin.mc option;
      (** Monte-Carlo functional yield of the chosen design *)
  hardened_report : Report.t;
      (** [base.report] with {!Report.t.analog} filled from the chosen
          candidate's corner analyses *)
}

val harden :
  ?options:options ->
  ?hopts:harden_options ->
  ?budget:Resilience.Budget.t ->
  Logic.Netlist.t ->
  harden_result
(** Synthesise, enumerate electrical variants (alternate labelings on
    the shared preprocessed graph, then line permutations of each),
    deduplicate, score every candidate's worst-case corner margin, and
    pick the maximiser (ties: higher typical margin, then smaller
    semiperimeter, then generation order — so ["base"] wins exact ties).
    Never raises on margin failure: a design that cannot meet the spec
    is still returned, with the misses in [failing_outputs].
    @raise Bdd.Manager.Size_limit as {!synthesize}. *)
