(** Compiling logic front-end objects into BDD nodes.

    Negation is folded, not built: every sub-result carries a polarity
    bit, [Not] flips it, and [And], [Or] and [Xor] fold their operands'
    bits into the operator code they pass to {!Manager.apply}. So no
    inverter, NAND, NOR, XNOR or negated operand builds a complement
    diagram; only a negated final value is materialised, with one
    apply. *)

val expr : Manager.t -> var_level:(string -> int) -> Logic.Expr.t -> Manager.node
(** [expr man ~var_level e] compiles an expression bottom-up. [var_level]
    maps each variable name to its manager level.
    @raise Manager.Size_limit if the manager's node budget is exceeded. *)

(** {1 Values with a pending negation} *)

type signed
(** A node, or the complement of a node that has not been built. *)

val positive : Manager.node -> signed

val to_node : Manager.t -> signed -> Manager.node
(** The node a value stands for; a negated value costs one apply. *)

val signed_expr :
  Manager.t -> env:(string -> signed) -> Logic.Expr.t -> signed
(** Like {!expr}, but variables map to already-built values, which keep
    their polarity — the step {!Sbdd.of_netlist} takes per gate, where a
    "variable" is an internal wire. A gate that reads an inverted wire
    folds the inversion into its own operator. *)
