(** Ablation studies for the design choices DESIGN.md calls out.

    Three knobs are toggled on a set of benchmark circuits, each isolating
    one ingredient of the COMPACT implementation:

    - {b balance-dp}: the Fig 6 component-flip subset-sum DP (maximum
      dimension of the resulting design);
    - {b warm-start}: seeding the MIP with the heuristic's labeling
      instead of the trivial all-VH one (trace events until the final
      bound);
    - {b oct-cut}: the [S ≥ n + k] strengthening cut in the MIP (trace
      events and final gap).

    Each function prints its table and returns the measured pairs. *)

val balance_dp :
  Experiments.config -> (string * int * int) list
(** (circuit, D with balancing, D without). *)

val warm_start :
  Experiments.config -> (string * int * int) list
(** (circuit, MIP trace events with the heuristic's warm start, events
    from the all-VH start). *)

val oct_cut : Experiments.config -> (string * int * int) list
(** (circuit, MIP trace events with the cut, events without). *)

val run_all : Experiments.config -> unit
