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

val create :
  rows:int ->
  cols:int ->
  input:wire ->
  outputs:(string * wire) list ->
  t
(** All junctions start [Literal.Off].
    @raise Invalid_argument on non-positive dimensions or out-of-range
    ports. *)

val rows : t -> int
val cols : t -> int
val input : t -> wire
val outputs : t -> (string * wire) list
val set : t -> row:int -> col:int -> Literal.t -> unit
val get : t -> row:int -> col:int -> Literal.t

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

val copy : t -> t
(** Deep copy (ports shared, junction map duplicated). *)

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
    scanning the full matrix. The first call sorts the junctions in
    O(junctions + rows + cols): two counting passes, by column and then
    stably by row, and no comparison sort. The design keeps that order
    until the next {!set}, so later calls only walk it; {!copy} and
    {!permute} start without one. The junctions are collected before [f]
    first runs, so [f] may modify the design. Safe to call from several
    domains at once on a design none of them modifies. *)

val delay_steps : t -> int
(** The paper's computation-delay model: one time step per wordline to
    program the devices plus one evaluation step, i.e. [rows + 1]. *)

val pp : Format.formatter -> t -> unit
(** ASCII rendering with row/column port markers; intended for small
    designs in examples and docs. *)
