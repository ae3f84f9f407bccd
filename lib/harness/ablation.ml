let small_graphs config =
  List.filter_map
    (fun name ->
       let entry = Circuits.Suite.find name in
       match Experiments.sbdd_of config entry with
       | None -> None
       | Some sbdd -> Some (name, Compact.Preprocess.of_sbdd sbdd))
    [ "ctrl"; "int2float"; "cavlc" ]

let balance_dp config =
  let rows = ref [] in
  let data = ref [] in
  List.iter
    (fun (name, (bg : Compact.Types.bdd_graph)) ->
       let oct =
         Graphs.Oct.solve ~budget:(Resilience.Budget.seconds config.Experiments.time_limit) bg.graph
       in
       let n = Graphs.Ugraph.num_nodes bg.graph in
       let transversal = Array.make n false in
       List.iter (fun v -> transversal.(v) <- true) oct.transversal;
       let dimension labels =
         let _, rows, cols = Compact.Types.counts labels in
         max rows cols
       in
       let balanced =
         dimension
           (Compact.Balance.orient ~alignment:true ~balance:true bg
              ~transversal)
       in
       let unbalanced =
         dimension
           (Compact.Balance.orient ~alignment:true ~balance:false bg
              ~transversal)
       in
       data := (name, balanced, unbalanced) :: !data;
       rows :=
         [ name; string_of_int balanced; string_of_int unbalanced ] :: !rows)
    (small_graphs config);
  Table.print ~title:"Ablation: component-flip balancing DP (max dimension)"
    ~columns:
      [ "circuit", Table.L; "D balanced", Table.R; "D unbalanced", Table.R ]
    (List.rev !rows);
  List.rev !data

(* The MIP's trace events until its final bound, seeded with the
   heuristic's labeling or, cold, with the all-VH one. *)
let mip_events config ~warm bg =
  let gamma = 0.5 in
  let warm_start =
    if warm then
      Compact.Label_heuristic.solve ~budget:(Resilience.Budget.seconds 1.)
        ~alignment:true ~gamma bg
    else Experiments.all_vh ~gamma bg
  in
  let labeling =
    Compact.Label_mip.solve
      ~budget:(Resilience.Budget.seconds config.Experiments.time_limit)
      ~alignment:true ~gamma ~warm_start bg
  in
  List.length labeling.trace, labeling

let warm_start config =
  let rows = ref [] in
  let data = ref [] in
  List.iter
    (fun (name, bg) ->
       let warm_events, l1 = mip_events config ~warm:true bg in
       let cold_events, l2 = mip_events config ~warm:false bg in
       data := (name, warm_events, cold_events) :: !data;
       rows :=
         [ name; string_of_int warm_events; string_of_int cold_events;
           (if l1.Compact.Types.optimal then "yes" else "no");
           (if l2.Compact.Types.optimal then "yes" else "no") ]
         :: !rows)
    (small_graphs config);
  Table.print
    ~title:"Ablation: MIP warm start (trace events until the final bound)"
    ~columns:
      [ "circuit", Table.L; "warm", Table.R; "cold", Table.R;
        "warm opt", Table.R; "cold opt", Table.R ]
    (List.rev !rows);
  List.rev !data

let oct_cut config =
  let rows = ref [] in
  let data = ref [] in
  List.iter
    (fun (name, (bg : Compact.Types.bdd_graph)) ->
       let gamma = 0.5 in
       let time_limit = config.Experiments.time_limit in
       let oct =
         Graphs.Oct.solve ~budget:(Resilience.Budget.seconds (time_limit /. 2.)) bg.graph
       in
       let k = if oct.optimal then List.length oct.transversal else oct.lower_bound in
       let with_cut =
         Compact.Label_mip.solve ~budget:(Resilience.Budget.seconds time_limit) ~alignment:true ~gamma
           ~oct_cut:k bg
       in
       let without =
         Compact.Label_mip.solve ~budget:(Resilience.Budget.seconds time_limit) ~alignment:true ~gamma
           ~oct_cut:0 bg
       in
       data :=
         (name, List.length with_cut.trace, List.length without.trace)
         :: !data;
       rows :=
         [ name; string_of_int k;
           string_of_int (List.length with_cut.trace);
           Table.fmt_pct
             (if with_cut.objective <= 0. then 0.
              else
                (with_cut.objective -. with_cut.lower_bound)
                /. with_cut.objective);
           string_of_int (List.length without.trace);
           Table.fmt_pct
             (if without.objective <= 0. then 0.
              else
                (without.objective -. without.lower_bound)
                /. without.objective) ]
         :: !rows)
    (small_graphs config);
  Table.print
    ~title:"Ablation: OCT strengthening cut in the MIP (S >= n + k)"
    ~columns:
      [ "circuit", Table.L; "k", Table.R; "cut events", Table.R;
        "cut gap", Table.R; "no-cut events", Table.R; "no-cut gap", Table.R ]
    (List.rev !rows);
  List.rev !data

let run_all config =
  ignore (balance_dp config);
  ignore (warm_start config);
  ignore (oct_cut config)
