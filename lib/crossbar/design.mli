(** Crossbar designs: the output artifact of the synthesis flow.

    A design is an [rows × cols] array of literal-programmed junctions
    together with an input port (where the driving voltage is applied) and
    one output port per function output (where a sensing resistor reads the
    result). Ports live on nanowires: a wordline (row) or a bitline
    (column). With the paper's alignment constraints all ports are
    wordlines; the unaligned single-output flow may place them on either
    kind. *)

type wire = Row of int | Col of int

type t
(** Immutable once built, so a design may be shared between domains. *)

val build :
  rows:int ->
  cols:int ->
  input:wire ->
  outputs:(string * wire) list ->
  ((row:int -> col:int -> Literal.t -> unit) -> unit) ->
  t
(** [build ~rows ~cols ~input ~outputs writes] calls [writes set] once
    and returns the design its sequence of [set] calls describes: every
    junction starts [Literal.Off], the last write to a junction wins, and
    writing [Off] erases it.
    @raise Invalid_argument on non-positive dimensions or out-of-range
    ports (before [writes] runs), or from [set] on an out-of-range
    junction. *)

val build_coded :
  rows:int ->
  cols:int ->
  input:wire ->
  outputs:(string * wire) list ->
  vars:string array ->
  ((row:int -> col:int -> int -> unit) -> unit) ->
  t
(** {!build} with each literal written as its {!Literal} int code over
    [vars], and [Off] as [-1]. [vars] may list a name more than once or
    name variables no junction keeps. The writes are buffered as ints
    and sorted row-major once, by two counting passes (by column, then
    stably by row), so building costs O(writes + rows + cols) plus
    sorting the variable names; no table keyed by a junction or a name
    is involved.
    @raise Invalid_argument as {!build} does, or from [set] on a code
    outside [-1 .. 2 × length vars]. *)

val rows : t -> int
val cols : t -> int
val input : t -> wire
val outputs : t -> (string * wire) list

val get : t -> row:int -> col:int -> Literal.t
(** A binary search among the row's programmed junctions: O(log of
    their number).
    @raise Invalid_argument out of range. *)

(** {1 Metrics (§III and §VIII of the paper)} *)

val semiperimeter : t -> int
(** [rows + cols]. *)

val max_dimension : t -> int
(** [max rows cols]. *)

val area : t -> int
(** [rows × cols]. *)

val num_programmed : t -> int
(** Junctions holding anything other than [Off]. *)

val num_literal_junctions : t -> int
(** Junctions holding a variable literal ([Pos]/[Neg]); the paper's
    power-consumption proxy for Fig 13. *)

val num_on_junctions : t -> int
(** Junctions hardwired [On] (the VH fuses). *)

val variables : t -> string list
(** Sorted distinct variables appearing on the junctions. *)

val permute : t -> row_perm:int array -> col_perm:int array -> t
(** A new design with row [i] relocated to [row_perm.(i)] and column [j]
    to [col_perm.(j)]; junctions and ports follow. Logically a no-op
    (sneak-path semantics are permutation-invariant) but electrically
    significant once nanowire segments are resistive: the distance
    between the input port and an output port sets the IR drop on its
    read path (see {!module:Analog}).
    @raise Invalid_argument unless both arrays are permutations of the
    design's dimensions. *)

val iter_programmed : t -> (int -> int -> Literal.t -> unit) -> unit
(** Visit every junction whose value is not [Off], in row-major order
    (row, then column, ascending). Designs are sparse — O(BDD edges)
    programmed junctions on O(n²) area — so consumers that only care
    about devices (evaluation, power models) should use this rather than
    scanning the full matrix. The junctions were sorted when the design
    was built, so this only walks them: O(rows + junctions). *)

(** {1 Int-coded junctions}

    The design codes its literals ({!Literal.pos_code} and the rest) over
    its own variable table, the {!variables} in order. Consumers that
    translate every junction (evaluation, serialization) do so once per
    code rather than once per junction. *)

val vars : t -> string array
(** {!variables} as a fresh array: the table the codes index. *)

val iter_coded : t -> (int -> int -> int -> unit) -> unit
(** {!iter_programmed} with each junction's code instead of its
    literal. *)

val delay_steps : t -> int
(** The paper's computation-delay model: one time step per wordline to
    program the devices plus one evaluation step, i.e. [rows + 1]. *)

val pp : Format.formatter -> t -> unit
(** ASCII rendering with row/column port markers; intended for small
    designs in examples and docs. *)
