(** Values assigned to the memristors of a crossbar.

    During the one-time initialisation phase each junction is bound to a
    constant or to a literal of the Boolean input variables; in the
    evaluation phase the device is programmed to low resistance exactly
    when its literal is true under the given assignment (§II-C). *)

type t =
  | Off  (** always high-resistive ('0') *)
  | On  (** always low-resistive ('1'); used to fuse VH node wire pairs *)
  | Pos of string  (** the variable itself *)
  | Neg of string  (** its negation *)

val conducts : t -> (string -> bool) -> bool
(** Is the device low-resistive under the assignment? *)

val negate : t -> t
val equal : t -> t -> bool

val variable : t -> string option
(** The underlying variable of [Pos]/[Neg]; [None] for constants. *)

val to_string : t -> string
(** ["0"], ["1"], ["a"], ["!a"]. *)

val pp : Format.formatter -> t -> unit

(** {1 Int codes}

    Over a table of variable names a literal is coded as an int: [0] is
    [On], [2k + 1] [Pos] of variable [k] and [2k + 2] its [Neg]. The BDD
    graph's edges, a design's junctions and the evaluator all use this
    coding. [Off] has no code; a design does not store it. *)

val pos_code : int -> int
(** [2k + 1]. *)

val neg_code : int -> int
(** [2k + 2]. *)

val code_variable : int -> int
(** The variable [k] of a [Pos] or [Neg] code. *)

val recode : int -> int -> int
(** [recode c k] is a code of [c]'s kind over variable [k]: [On] stays
    [0], [Pos] and [Neg] keep their polarity. *)

val of_code : string array -> int -> t
(** The literal a code denotes over a table. *)
