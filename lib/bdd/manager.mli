(** Hash-consed reduced ordered binary decision diagrams.

    A manager owns a fixed variable order (variable [i] is at level [i];
    smaller levels are closer to the roots) and a unique table, so
    structural equality of node handles coincides with functional
    equivalence — the classic ROBDD canonicity invariant. Complement edges
    are deliberately not used: the crossbar mapping needs the plain
    two-terminal diagram.

    Nodes are integer handles private to their manager. Handle [0] is the
    0-terminal and handle [1] the 1-terminal. *)

type t
(** A manager. *)

type node = int
(** Node handle; only meaningful together with its manager. *)

exception Size_limit of int
(** Raised by operations when the unique table would exceed the node
    budget given at creation. *)

type stats = {
  unique_lookups : int;  (** [mk] calls that consulted the unique table *)
  unique_hits : int;  (** lookups answered by an existing node *)
  unique_collisions : int;  (** linear-probe steps past occupied slots *)
  cache_lookups : int;  (** apply-cache probes *)
  cache_hits : int;
  growths : int;  (** unique-table rehashes (the apply cache grows along) *)
  peak_nodes : int;  (** [allocated], never decreases *)
  level_swaps : int;  (** adjacent-level exchanges done by reordering *)
  sift_passes : int;  (** full sifting passes over the variables *)
  cache_invalidations : int;
      (** apply-cache wipes forced by reordering sessions *)
}
(** Counters of the packed unique table and the lossy direct-mapped
    apply cache; cheap to read at any time. *)

val create : ?node_limit:int -> num_vars:int -> unit -> t
(** [create ~num_vars ()] prepares a manager for variables
    [0 .. num_vars - 1]. [node_limit] (default: unlimited) bounds the
    total number of allocated nodes. *)

val zero : node
val one : node
val is_terminal : node -> bool

val var : t -> int -> node
(** The projection function of variable [i].
    @raise Invalid_argument if [i] is out of range. *)

(** {1 Structure} *)

val level : t -> node -> int
(** Variable level of an internal node; [max_int] for terminals. *)

val low : t -> node -> node
(** Else-child (variable = 0).
    @raise Invalid_argument on terminals. *)

val high : t -> node -> node
(** Then-child (variable = 1).
    @raise Invalid_argument on terminals. *)

val allocated : t -> int
(** Number of nodes ever hash-consed (including both terminals). *)

(** {1 Boolean operations} (all memoised) *)

val apply : t -> int -> node -> node -> node
(** [apply t op f g] is Bryant's apply: the diagram of op(f, g) for the
    binary operator whose 4-bit code has op(a, b) at bit [2a + b]
    (0b1000 is and, 0b1110 or, 0b0110 xor, 0b0011 not-f). It is the
    manager's one recursive operation. Each step normalises before it
    probes the one cache, keyed (op, f, g): a terminal operand goes
    second, otherwise the smaller handle goes first with the operator
    transposed to match, and a step that depends on one operand only
    (a terminal, f = g, or an operator blind to one side) is a
    terminal, that operand, or its complement, which is the one unary
    key (not-f, f, f). Any code in [0, 15] is accepted. *)

val op_and : int
val op_or : int
val op_xor : int
(** The codes of and, or and xor. *)

val not_ : t -> node -> node
val and_ : t -> node -> node -> node
val or_ : t -> node -> node -> node
val xor : t -> node -> node -> node

val ite : t -> node -> node -> node -> node
(** [ite t f g h] is (f and g) or (not f and h), derived from three
    applies. *)

(** {1 Queries} *)

val eval : t -> node -> (int -> bool) -> bool
(** Evaluate under an assignment of the variables. *)

val any_sat : t -> node -> (int * bool) list option
(** One satisfying partial assignment (level, value), or [None] for the
    constant-0 function. *)

val reachable : t -> node list -> node list
(** All distinct nodes reachable from the given roots (including
    terminals that are reached), in depth-first discovery order. *)

val size : t -> node list -> int
(** [List.length (reachable t roots)]. *)

val iter_edges : t -> node list -> (node -> node -> bool -> unit) -> unit
(** [iter_edges t roots f] calls [f parent child is_then] once per decision
    edge of the sub-diagram reachable from [roots]. *)

val clear_caches : t -> unit
(** Drop the apply cache (the unique table is kept). *)

(** {1 Dynamic reordering}

    In-place Rudell sifting over the packed arrays: adjacent-level
    exchanges rewrite only the two affected unique-table levels, so a
    sift costs swaps proportional to the diagram instead of full
    rebuilds per candidate order.

    {b Contract.} [roots] must cover {e every} handle the caller intends
    to keep using: reordering garbage-collects the rest of the manager
    (handles outside the cone of [roots] become invalid), and the lossy
    apply cache is dropped.  Handles in the cone stay valid but
    their meaning is permuted — after the call, the variable at level
    [l] is the one that was at level [perm.(l)] when the call began,
    where [perm] is the returned permutation.  Callers that name
    variables re-map their own tables ([Sbdd.sift] permutes
    [input_order]). *)

val sift_to_convergence :
  ?budget:Resilience.Budget.t -> t -> node list -> int array
(** Rudell sifting: each pass moves every variable (largest level
    population first, original index breaking ties) to its locally best
    level, abandoning a direction once the diagram exceeds 1.2 times the
    best size seen. Passes repeat until one fails to shrink the diagram,
    at most 8 of them. An exchange reads only the live nodes of its two
    levels. The budget is polled at swap boundaries; exhaustion stops
    exploring but still settles on the best position found, so the
    diagram is always left consistent. Returns the accumulated level
    permutation. *)

(** {1 Instrumentation} *)

val stats : t -> stats
(** Snapshot of the table / cache counters accumulated since [create]. *)

val pp_stats : Format.formatter -> stats -> unit
