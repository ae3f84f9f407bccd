let all =
  let run f config = ignore (f config) in
  [ "table1", run Experiments.table1;
    "table2", run Experiments.table2;
    "table3", run Experiments.table3;
    "table4", run Experiments.table4;
    "fig9", run Experiments.fig9;
    "fig10", run Experiments.fig10;
    "fig11", run Experiments.fig11;
    "fig12", run Experiments.fig12;
    "fig13", run Experiments.fig13;
    "robustness", run (fun c -> Experiments.robustness c);
    "variation", run (fun c -> Experiments.variation c);
    "ablation", Ablation.run_all ]
