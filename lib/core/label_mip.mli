(** VH-labeling method 2 (§VI-B): the weighted objective γ·S + (1−γ)·D as
    a mixed-integer program, solved by {!Milp.Branch_bound}.

    The formulation is an equivalent strengthening of the paper's Eq 4:
    instead of one helper binary per edge, each edge (i, j) contributes the
    two rows [xH_i + xH_j ≥ 1] and [xV_i + xV_j ≥ 1] — i.e. the H side and
    the V side must each form a vertex cover — together with
    [xV_i + xH_i ≥ 1] per node. A case split on the labels of i and j
    shows this admits exactly the label pairs realisable on a crossbar,
    so the feasible sets coincide while the LP relaxation is no weaker.
    Two optional cutting planes tighten the relaxation: [S ≥ n + k_lb]
    from an OCT lower bound, and [D ≥ ⌈S_lb / 2⌉]. On graphs of at
    most 160 nodes (those Auto's MIP rung labels) two odd-cycle rows
    per cycle of {!Graphs.Oct.odd_cycle_packing} tighten it further:
    [Σ_C xH ≥ (|C| + 1)/2] and [Σ_C xV ≥ (|C| + 1)/2], valid because
    the H labels and the V labels each cover every edge, and covering
    an odd cycle of 2m + 1 nodes takes m + 1 of them. Their number is
    added to the [mip.cycle_rows] Obs counter.

    Alignment (Eq 7) adds [xH_i = 1] for the terminal and all roots. *)

val objective_step : gamma:float -> float option
(** The lattice of the objective γ·S + (1 − γ)·D: [Some (1/q)] for the
    least [q ≤ 16] with γ = p/q (0.5 at the default γ), [None] for
    other γ and outside [0, 1]. S and D are integers at every labeling,
    and at a relaxation optimum with integral labels D sits at
    max(R, C, its cut row), so every labeling's objective lies on this
    lattice; {!solve} hands it to the branch & bound to prune on. *)

exception Infeasible of string
(** Raised by {!solve} when user-imposed row/column capacity constraints
    admit no labeling (§III: "COMPACT would generate a valid design D or
    return that the specified design constraints are infeasible"). *)

val solve :
  ?budget:Resilience.Budget.t ->
  ?alignment:bool ->
  ?gamma:float ->
  ?warm_start:Types.labeling ->
  ?oct_cut:int ->
  ?max_rows:int ->
  ?max_cols:int ->
  Types.bdd_graph ->
  Types.labeling
(** [gamma] defaults to 0.5 (the paper's recommended setting);
    [warm_start] seeds the incumbent (default: {!Label_oct.greedy});
    [oct_cut] is a known lower bound on the OCT size used for the
    strengthening cut (default: 0, i.e. only the trivial [S ≥ n] cut).
    [max_rows]/[max_cols] impose hard capacities on the wordline/bitline
    counts (the §III constrained formulation); the warm start is dropped
    when it violates them.

    The branch & bound stops as soon as its incumbent meets a bound it
    already holds ({!Milp.Branch_bound.solve}'s [known_bound]): the
    larger of the cut rows' γ(n + c) + (1 − γ)⌈(n + c)/2⌉ for
    [oct_cut = c], and the warm start's [lower_bound] when the warm
    start was labelled at the same [gamma]. A warm start from the exact
    OCT carries γ(n + k{^ *}) + (1 − γ)⌈(n + k{^ *})/2⌉ (Lemma 1), so when
    it meets that bound, no relaxation is solved and neither the
    odd-cycle rows nor the dense simplex form is built. The branch &
    bound also prunes on the objective's lattice ({!objective_step}).
    The warm start's [lower_bound] is trusted to bound this solve's
    optimum. Bounds of unconstrained labelings qualify, because
    capacities and alignment only remove labelings; the reverse does
    not hold, so a labeling this function solved under capacities or
    alignment must not warm-start a solve without them. The result
    carries the solver's convergence [trace].
    @raise Infeasible when capacity constraints cannot be met. *)
