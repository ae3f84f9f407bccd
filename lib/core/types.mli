(** Shared types of the COMPACT flow: the BDD graph and VH-labelings. *)

(** Label of a BDD-graph node (§V-B): mapped to a vertical bitline, a
    horizontal wordline, or both (fused by a hardwired ON memristor). *)
type label = V | H | VH

type root = Node of int | Const_false
(** A function output: a graph node, or the constant-0 function (which has
    no node once the 0-terminal is removed). Constant-1 outputs are roots
    that happen to equal the graph's terminal node. *)

(** The undirected graph distilled from an SBDD by {!module:Preprocess}:
    one graph node per BDD node except the 0-terminal; one labelled edge
    per surviving decision edge. *)
type bdd_graph = {
  graph : Graphs.Ugraph.t;
  inputs : string array;
      (** the SBDD's input order: variable [k] of the edge codes *)
  edges : int array;
      (** one triple per graph edge, edge [i] at [3i .. 3i + 2]:
          [u], [v] with [u < v], and the {!Crossbar.Literal} int code,
          over [inputs], of the literal that programs its memristor
          ([2k + 1] Pos k, [2k + 2] Neg k) *)
  terminal : int;  (** graph node of the 1-terminal *)
  roots : (string * root) list;  (** output name → root, in output order *)
  node_names : string array;
      (** diagnostic name per graph node (variable of the BDD node, or
          ["1"] for the terminal) *)
}

(** A solution to the VH-labeling problem together with solver metadata. *)
type labeling = {
  labels : label array;
  vh_count : int;
  rows : int;  (** R = #H + #VH *)
  cols : int;  (** C = #V + #VH *)
  objective : float;  (** γ·S + (1−γ)·D for the γ it was produced with *)
  gamma : float;
  optimal : bool;  (** proven optimal for its objective *)
  lower_bound : float;  (** proven bound on the objective *)
  solve_time : float;
  method_name : string;
  trace : Milp.Branch_bound.trace_point list;
      (** solver convergence trace; empty for combinatorial methods *)
}

val semiperimeter : labeling -> int
(** [rows + cols], which also equals [num_nodes + vh_count]. *)

val max_dimension : labeling -> int

val objective_of : gamma:float -> rows:int -> cols:int -> float
(** γ·S + (1−γ)·D. *)

val counts : label array -> int * int * int
(** [(#VH, rows, cols)] of a label array, with rows = #H + #VH and
    cols = #V + #VH: the counts {!make_labeling} stores. *)

val check_labeling :
  ?alignment:bool -> bdd_graph -> label array -> (unit, string) Stdlib.result
(** Validates the connection constraints of Eq 2: no edge joins two
    pure-V or two pure-H nodes. With [alignment] (default false), also
    checks that the terminal and every root node carry an H component
    (Eq 7). *)

val make_labeling :
  bdd_graph ->
  gamma:float ->
  optimal:bool ->
  lower_bound:float ->
  solve_time:float ->
  method_name:string ->
  ?trace:Milp.Branch_bound.trace_point list ->
  label array ->
  labeling
(** Packages a label array, computing the derived counts.
    @raise Invalid_argument if {!check_labeling} fails (without
    alignment). *)

val pp_label : Format.formatter -> label -> unit
val pp_labeling : Format.formatter -> labeling -> unit
