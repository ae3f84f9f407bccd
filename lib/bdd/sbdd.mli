(** Shared binary decision diagrams (multi-rooted ROBDD forests).

    An SBDD holds one root per output of a multi-output function over a
    single manager, so structure common to several outputs is stored once
    (§VII-A of the paper). Building each output in its own manager instead
    yields the "multiple ROBDDs" mode the paper compares against
    (Table III) — see {!of_netlist_separate}. *)

type t = {
  man : Manager.t;
  input_order : string array;  (** level → primary-input name *)
  roots : (string * Manager.node) list;  (** output name → root, in order *)
}

val of_netlist :
  ?budget:Resilience.Budget.t ->
  ?order:string list ->
  ?node_limit:int ->
  Logic.Netlist.t ->
  t
(** Symbolic simulation of the netlist in topological order. [order]
    defaults to {!Order.dfs_fanin}. [budget] is polled once per netlist
    gate; a partial diagram is useless, so exhaustion raises.
    @raise Manager.Size_limit when the node budget is exhausted.
    @raise Resilience.Budget.Exhausted when [budget] runs out mid-build.
    @raise Invalid_argument if [order] is not a permutation of the
    inputs. *)

val of_exprs :
  ?order:string list ->
  ?node_limit:int ->
  inputs:string list ->
  (string * Logic.Expr.t) list ->
  t
(** Build directly from named output expressions. *)

val of_netlist_separate :
  ?order:string list -> ?node_limit:int -> Logic.Netlist.t -> t list
(** One single-output BDD (own manager) per output, all using the same
    global input order. *)

val best_order :
  ?node_limit:int -> Logic.Netlist.t -> string list * int
(** Try every {!Order.candidates} order and return the one whose SBDD is
    smallest (the first on ties), together with that size. Orders whose
    build exceeds [node_limit] are skipped; if all do, the last candidate
    is returned with [max_int]. *)

val size : t -> int
(** Distinct reachable nodes, including reached terminals. *)

val sift : ?budget:Resilience.Budget.t -> t -> int * int
(** In-place dynamic reordering ({!Manager.sift_to_convergence} seeded
    with this SBDD's roots). Root handles stay valid; [input_order] is
    permuted in place so level → input-name lookups remain correct.
    Any other handle into this manager is invalidated (the reordering
    session garbage-collects everything outside the roots' cone).
    Returns [(size_before, size_after)]; the budget is polled at swap
    boundaries and exhaustion just stops improving. *)

val improve :
  ?budget:Resilience.Budget.t ->
  ?order:string list ->
  ?node_limit:int ->
  Logic.Netlist.t ->
  t
(** The variable-order step: the diagram of [order], or else the
    {!best_order} candidate's, then {!sift} in place. The candidate
    search builds each order under [budget] and keeps the smallest
    diagram, so the winner is built once; exhaustion ends the search with
    the smallest diagram completed so far, or, if none completed, the
    {!Order.dfs_fanin} diagram. That diagram, like one of a given
    [order], is built under [Resilience.Budget.untimed budget] (a partial
    diagram is useless, so only cancellation or a node or memory limit
    stops it, by raising). The sift runs under [budget] itself, whose
    expiry just stops improving. [budget] defaults to unlimited. *)

val stats : t -> Manager.stats
(** Unique-table / apply-cache counters of the underlying manager. *)

val num_edges : t -> int
(** Decision edges of the reachable sub-diagram (2 per internal node). *)

val eval : t -> (string -> bool) -> (string * bool) list
(** Evaluate all outputs under an input assignment. *)

val to_truth_table : t -> Logic.Truth_table.t
(** Exhaustive tabulation over the input order (≤ 20 inputs). *)
