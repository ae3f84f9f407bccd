(** Regeneration of every table and figure of the paper's evaluation
    (§VIII). Each function prints the result to stdout and returns the
    underlying data so tests and other tools can assert on it.

    Run times are controlled by {!config}: the defaults keep the whole
    suite to a few minutes on a laptop (the paper used a 3-hour CPLEX
    limit per instance; the shapes, not the wall-clock, are the target —
    see EXPERIMENTS.md). *)

type config = {
  time_limit : float;  (** labeling budget per circuit (seconds) *)
  bdd_node_limit : int;
  max_graph_nodes : int;
      (** skip a circuit/mode when its BDD graph exceeds this bound *)
  verify_designs : bool;
      (** check every synthesised design against its netlist ({!verify}) *)
  jobs : int;
      (** domain-pool width for the parallel sweeps (robustness draws,
          variation Monte-Carlo, MIP branch & bound). The stock configs
          default to {!Parallel.default_jobs}, i.e. [COMPACT_JOBS] or
          1; results are identical for every jobs count. *)
}

val default_config : config
val quick_config : config
(** Tighter limits for smoke runs / CI. *)

val sbdd_of : config -> Circuits.Suite.entry -> Bdd.Sbdd.t option
(** Build the benchmark's SBDD under the harness order: the best
    candidate order ({!Bdd.Sbdd.best_order}), sifted
    ({!Bdd.Sbdd.improve}) when its diagram has at most 5,000 nodes.
    [None] if every order exceeds the node limit. *)

val verify : config -> Circuits.Suite.entry -> Crossbar.Design.t -> unit
(** Check a design synthesised for [e] against [e]'s netlist, when
    [verify_designs] is set: on every assignment up to
    {!Crossbar.Verify.exhaustive_threshold} inputs, on 64 seeded random
    ones above ({!Crossbar.Verify.auto}). Every experiment that
    synthesises a design runs it before tabulating the design.
    @raise Failure naming the circuit and the counterexample when the
    design computes the wrong value. *)

val table1 : config -> (string * int * int * int * int) list
(** Benchmark properties: (name, inputs, outputs, SBDD nodes, SBDD edges),
    printed next to the paper's Table I values. *)

val table2 : config -> (string * float * Compact.Report.t) list
(** γ ∈ {0, 0.5, 1} on the small benchmarks: rows, cols, D, S, time. *)

val fig9 : config -> (string * (int * int) list) list
(** Non-dominated (rows, cols) points under a γ sweep for cavlc and
    int2float. *)

val table3 : config -> (string * Compact.Report.t option * Compact.Report.t option) list
(** Multiple ROBDDs vs single SBDD per multi-output benchmark. *)

val table4 : config -> (string * Compact.Report.t option * Compact.Report.t option) list
(** Staircase prior work [16] vs COMPACT (γ = 0.5). The staircase side is
    reported through a {!Compact.Report.t} whose labeling marks every node
    VH. *)

val all_vh : gamma:float -> Compact.Types.bdd_graph -> Compact.Types.labeling
(** The trivial feasible labeling, every node VH: the MIP's cold start in
    {!fig10} and in the warm-start ablation. *)

val fig10 : config -> Milp.Branch_bound.trace_point list
(** MIP convergence trace (best integer / best bound / gap vs time) on the
    largest benchmark whose MIP is tractable here. *)

val fig11 : config -> (string * float) list
(** Relative gap at the time limit for benchmarks without a proven
    optimum. *)

val fig12 : config -> (string * float * float) list
(** (circuit, power ratio, delay ratio) of COMPACT vs the staircase
    baseline; ratios < 1 mean COMPACT wins. *)

val fig13 : config -> (string * float * float) list
(** (circuit, power ratio, delay ratio) of COMPACT vs the CONTRA cost
    model on the EPFL control benchmarks. *)

val robustness :
  ?circuits:string list ->
  ?trials:int ->
  config ->
  (string * float * int * int * int) list
(** Repair-yield sweep (beyond the paper): per circuit and device fault
    rate, draw [trials] random defect maps with one spare wordline and
    bitline and climb the placement rungs of {!Compact.Repair}. Returns
    (circuit, rate, repaired, degraded, unplaceable) per point. *)

val variation :
  ?circuits:string list ->
  ?sigmas:float list ->
  ?max_trials:int ->
  config ->
  (string * float * float * Crossbar.Margin.mc) list
(** Electrical robustness sweep (beyond the paper): per circuit and
    lognormal device spread sigma (r_off spreading twice as wide, like
    the default spec), the worst-case deterministic corner margin and
    the Monte-Carlo functional yield with its Wilson interval. Returns
    (circuit, sigma, corner margin, mc) per point. *)

val run_all : config -> unit
(** Everything above, in paper order. *)
