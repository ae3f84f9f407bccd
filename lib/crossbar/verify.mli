(** Functional verification of crossbar designs against a reference.

    The paper verifies every synthesised design with SPICE; here designs
    are checked exhaustively (small input counts) or by random sampling
    against the reference function, and optionally re-checked electrically
    with {!module:Analog}.

    Every check compiles the design once ({!Eval.compile}) and evaluates
    {!Eval.lanes} assignments per sweep. Before the first assignment it
    checks its preconditions: every design variable must be a reference
    input ([Invalid_argument "Verify: design variable v not a reference
    input"]) and every design output a reference output
    ([Invalid_argument "Verify: unknown output o"]), whether or not any
    assignment reaches the junction, and even when there is no assignment
    to check. Assignments are taken in a fixed order (ascending rows, or
    a seeded stream trial by trial) and checked in that order, outputs in
    design-output order, so [reference] is called on exactly the points
    up to the first failure, and that failure is the counterexample. *)

type counterexample = {
  assignment : (string * bool) list;
  output : string;
  expected : bool;
  got : bool;
}

type outcome = Ok | Failed of counterexample

val against_table :
  Design.t -> reference:Logic.Truth_table.t -> outcome
(** Exhaustive check on all [2^n] assignments of the reference's inputs.
    Design outputs are matched to reference outputs by name. Design
    variables must be a subset of the reference inputs.
    @raise Invalid_argument if a design variable or output name is
    missing from the reference. *)

val random :
  ?seed:int ->
  trials:int ->
  Design.t ->
  inputs:string list ->
  reference:(bool array -> bool array) ->
  outputs:string list ->
  outcome
(** Monte-Carlo check on [trials] uniform assignments. *)

val exhaustive_threshold : int
(** Input count (12) up to which {!auto} and {!per_output} enumerate all
    assignments instead of sampling. *)

val exhaustive :
  Design.t ->
  inputs:string list ->
  reference:(bool array -> bool array) ->
  outputs:string list ->
  outcome
(** All [2^n] assignments against a reference evaluator (the functional
    analogue of {!against_table}). *)

val auto :
  ?seed:int ->
  trials:int ->
  Design.t ->
  inputs:string list ->
  reference:(bool array -> bool array) ->
  outputs:string list ->
  outcome
(** {!exhaustive} when the input count is at most
    {!exhaustive_threshold}, {!random} otherwise — randomised checks
    miss single-minterm corruptions that exhaustion cannot. *)

val per_output :
  ?seed:int ->
  ?trials:int ->
  Design.t ->
  inputs:string list ->
  reference:(bool array -> bool array) ->
  outputs:string list ->
  (string * counterexample option) list
(** Per-output verdicts in design-output order: [None] when the output
    computed correctly on every checked assignment, otherwise its first
    counterexample. Exhaustive below {!exhaustive_threshold} inputs,
    [trials] (default 256) random assignments above. The basis of the
    repair ladder's graceful-degradation report. *)

val pp_counterexample : Format.formatter -> counterexample -> unit
