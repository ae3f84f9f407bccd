let small_graphs config =
  List.filter_map
    (fun name ->
       let entry = Circuits.Suite.find name in
       match Experiments.sbdd_of config entry with
       | None -> None
       | Some sbdd -> Some (name, Compact.Preprocess.of_sbdd sbdd))
    [ "ctrl"; "int2float"; "cavlc" ]

let nt_kernel config =
  let rows = ref [] in
  let data = ref [] in
  List.iter
    (fun (name, (bg : Compact.Types.bdd_graph)) ->
       let product = Graphs.Product.with_k2 bg.graph in
       let with_k =
         Graphs.Vertex_cover.solve ~budget:(Resilience.Budget.seconds config.Experiments.time_limit)
           ~kernelize:true product
       in
       let without =
         Graphs.Vertex_cover.solve ~budget:(Resilience.Budget.seconds config.Experiments.time_limit)
           ~kernelize:false product
       in
       data := (name, with_k, without) :: !data;
       rows :=
         [ name;
           string_of_int with_k.size; string_of_int with_k.nodes_explored;
           Table.fmt_f with_k.elapsed;
           string_of_int without.size; string_of_int without.nodes_explored;
           Table.fmt_f without.elapsed ]
         :: !rows)
    (small_graphs config);
  Table.print
    ~title:"Ablation: Nemhauser-Trotter kernelisation in the VC solver"
    ~columns:
      [ "circuit", Table.L; "NT size", Table.R; "NT nodes", Table.R;
        "NT time", Table.R; "raw size", Table.R; "raw nodes", Table.R;
        "raw time", Table.R ]
    (List.rev !rows);
  List.rev !data

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
         let r = ref 0 and c = ref 0 in
         Array.iter
           (fun l ->
              (match l with
               | Compact.Types.H | Compact.Types.VH -> incr r
               | Compact.Types.V -> ());
              match l with
              | Compact.Types.V | Compact.Types.VH -> incr c
              | Compact.Types.H -> ())
           labels;
         max !r !c
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

let mip_nodes config ~warm ~cut (bg : Compact.Types.bdd_graph) =
  (* Run the MIP and recover the node count from its trace length proxy:
     we re-run Branch_bound directly to read the node counter. *)
  let gamma = 0.5 in
  let warm_start =
    if warm then
      Some (Compact.Label_heuristic.solve ~budget:(Resilience.Budget.seconds 1.) ~alignment:true ~gamma bg)
    else None
  in
  let oct_cut = if cut then Some 0 else None in
  ignore oct_cut;
  let labeling =
    match warm_start with
    | Some w ->
      Compact.Label_mip.solve ~budget:(Resilience.Budget.seconds config.Experiments.time_limit)
        ~alignment:true ~gamma ~warm_start:w bg
    | None ->
      Compact.Label_mip.solve ~budget:(Resilience.Budget.seconds config.Experiments.time_limit)
        ~alignment:true ~gamma bg
  in
  List.length labeling.trace, labeling

let warm_start config =
  let rows = ref [] in
  let data = ref [] in
  List.iter
    (fun (name, bg) ->
       let with_nodes, l1 = mip_nodes config ~warm:true ~cut:true bg in
       let without_nodes, l2 = mip_nodes config ~warm:false ~cut:true bg in
       ignore (l1, l2);
       data := (name, with_nodes, without_nodes) :: !data;
       rows :=
         [ name; string_of_int with_nodes; string_of_int without_nodes;
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
  ignore (nt_kernel config);
  ignore (balance_dp config);
  ignore (warm_start config);
  ignore (oct_cut config)
