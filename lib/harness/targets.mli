(** The paper's experiments by name: the one table that
    [compact_cli experiments] and [bench/main.exe] both dispatch on.
    It lives outside {!Experiments} because {!Ablation} depends on
    {!Experiments}. *)

val all : (string * (Experiments.config -> unit)) list
(** table1–table4, fig9–fig13, robustness, variation and ablation, in
    that order; each runner prints its table. *)
