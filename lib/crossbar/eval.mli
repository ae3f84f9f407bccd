(** Digital sneak-path evaluation of a crossbar design.

    Models the flow-based evaluation phase: program every junction from the
    input assignment, drive the input nanowire, and ask — for each output
    nanowire — whether a path of low-resistive junctions connects it to the
    input (§II-C). This is the defining semantics of a valid design
    (Problem formulation, §III); the analog solver in {!module:Analog}
    checks the same property electrically.

    A design is compiled once ({!compile}) and then evaluated up to
    {!lanes} assignments per {!sweep}: each wire holds one reach bit per
    assignment, and a worklist propagates
    [reach(w') ← reach(w') ∨ (reach(w) ∧ conducts(ℓ))] across every
    junction [(w, w', ℓ)] until nothing changes. The result is the least
    fixpoint of undirected reachability from the input wire, so sneak
    paths are covered and the adjacency order cannot change it.
    {!evaluate} and {!reachable_wires} are the one-assignment case. *)

type t
(** A compiled design. Wires are numbered rows first, then columns;
    adjacency is flat int arrays, and each junction's literal is an int
    code over a variable index. Immutable once built, so it may be
    shared between domains. *)

val compile : Design.t -> index:(string -> int) -> t
(** [index v] is the position of variable [v] in the words passed to
    {!sweep}. It is called once per design variable, in the order a
    row-major walk of the junctions first meets each, so an exception it
    raises for an unknown variable escapes from [compile]. Costs one
    {!Design.iter_coded} pass, which maps each junction's code through a
    per-variable table: no junction looks a name up. *)

val lanes : int
(** Assignments per sweep: [Sys.int_size] (63 on 64-bit hosts). *)

val wire : t -> Design.wire -> int
(** The number of a wire in {!sweep}'s result. *)

val sweep : t -> int array -> batch:int -> int array
(** [sweep t words ~batch] evaluates [batch] assignments at once, where
    bit [l] of [words.(k)] is variable [k]'s value in assignment [l].
    Returns one word per wire, indexed by {!wire}: bit [l] is set when
    the wire is reachable from the input under assignment [l]. Bits at
    and past [batch] read 0. A wire's word only grows, so each is
    revisited at most [batch] times.
    @raise Invalid_argument unless [1 <= batch <= lanes]. *)

val reachable_wires : Design.t -> (string -> bool) -> bool array * bool array
(** [(rows_reached, cols_reached)] from the input wire through conducting
    junctions under the assignment. *)

val evaluate : Design.t -> (string -> bool) -> (string * bool) list
(** Output values in design output order. Compiles the design on every
    call; compile once and {!sweep} when evaluating many assignments. *)

val evaluate_point :
  Design.t -> input_names:string list -> bool array -> bool array
(** Positional variant: input variable [List.nth input_names i] takes the
    value [point.(i)]. *)
