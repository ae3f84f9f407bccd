let of_oct_result ?(alignment = false) ~gamma ~method_name
    (bg : Types.bdd_graph) (oct : Graphs.Oct.result) =
  let n = Graphs.Ugraph.num_nodes bg.graph in
  let transversal = Array.make n false in
  List.iter (fun v -> transversal.(v) <- true) oct.transversal;
  let labels = Balance.orient ~alignment bg ~transversal in
  (* Alignment may have upgraded extra nodes to VH beyond the OCT; claim
     optimality only when it did not. *)
  let vh, _, _ = Types.counts labels in
  let optimal = oct.optimal && vh = List.length oct.transversal in
  let lower_bound =
    float_of_int (n + oct.lower_bound)
    |> fun s_lb ->
    (gamma *. s_lb) +. ((1. -. gamma) *. ceil (s_lb /. 2.))
  in
  Types.make_labeling bg ~gamma ~optimal ~lower_bound
    ~solve_time:oct.elapsed ~method_name labels

let solve ?budget ?(alignment = false) ?(gamma = 1.0) bg =
  let oct = Graphs.Oct.solve ?budget bg.Types.graph in
  of_oct_result ~alignment ~gamma ~method_name:"oct-exact" bg oct

let greedy ?(alignment = false) ?(gamma = 1.0) bg =
  let oct = Graphs.Oct.greedy bg.Types.graph in
  of_oct_result ~alignment ~gamma ~method_name:"oct-greedy" bg oct
