(** Multi-output combinational netlists.

    A netlist is a topologically ordered list of named internal nodes, each
    computing a Boolean expression over primary inputs and previously
    defined wires. This is the common output format of the BLIF/PLA readers
    and of the benchmark-circuit generators, and the common input format of
    the BDD builder and of the MAGIC baseline. *)

type node = {
  wire : string;  (** name of the wire this node drives *)
  func : Expr.t;  (** expression over inputs and earlier wires *)
}

type t = private {
  name : string;
  inputs : string list;
  outputs : string list;
  nodes : node list;  (** in topological order *)
}

exception Ill_formed of string
(** Raised by {!create} on duplicate wires, references to undefined wires,
    undriven outputs, or name clashes between inputs and nodes. *)

val create :
  name:string -> inputs:string list -> outputs:string list -> node list -> t
(** Validates and packages a netlist. Nodes must already be in topological
    order: each [func] may only mention primary inputs and wires of earlier
    nodes. Outputs must be primary inputs or driven wires.
    @raise Ill_formed when validation fails. *)

val of_expr : name:string -> Expr.t -> t
(** The single-output netlist computing the expression over its
    variables ({!Expr.vars}). The output wire is ["f"] unless ["f"] is
    one of the variables; then it is the first of ["f0"], ["f1"], …
    that is not. *)

(** {1 Node constructors} *)

val n_expr : string -> Expr.t -> node
val n_and : string -> string list -> node
val n_or : string -> string list -> node
val n_nand : string -> string list -> node
val n_nor : string -> string list -> node
val n_xor : string -> string -> string -> node
val n_xnor : string -> string -> string -> node
val n_not : string -> string -> node
val n_buf : string -> string -> node

(** {1 Observers} *)

val num_inputs : t -> int
val num_outputs : t -> int
val num_nodes : t -> int

val literal_count : t -> int
(** Total AST size of all node expressions; a rough circuit-size measure. *)

val eval : t -> (string -> bool) -> (string * bool) list
(** [eval t env] runs the netlist on an input assignment and returns the
    output values in output order. *)

val eval_point : t -> bool array -> bool array
(** [eval_point t point] evaluates with [point.(i)] as the value of the
    [i]-th input (in [inputs] order); returns outputs in [outputs] order.
    Staged: [eval_point t] resolves every wire name to a slot of a value
    array and compiles the node expressions once, and returns a closure
    that costs one pass over the nodes per point. Partially apply it when
    evaluating many points (a verification [~reference]). The closure
    keeps no state between calls, so domains may share it. *)

val output_exprs : t -> (string * Expr.t) list
(** Flattened expression per output, obtained by substituting node
    definitions bottom-up. Sharing is lost, so the result can be
    exponentially larger than the netlist; intended for small circuits and
    for tests. *)

val to_truth_table : t -> Truth_table.t
(** Exhaustive tabulation (inputs ≤ {!Truth_table.max_inputs}). *)

val rename : t -> prefix:string -> t
(** Prefixes every wire (inputs, nodes, outputs) with [prefix]; useful when
    composing netlists. *)

val pp_stats : Format.formatter -> t -> unit
