let exact_oct_node_threshold = 3000

(* The search's size: at most [max_rounds] rounds, each trying the
   [candidates_per_round] highest-degree nodes plus the aligned ones. *)
let max_rounds = 25
let candidates_per_round = 24
let c_rounds = Obs.Counter.make "heuristic.rounds"
let c_moves = Obs.Counter.make "heuristic.moves"
let c_accepted = Obs.Counter.make "heuristic.accepted"

let solve ?(budget = Resilience.Budget.unlimited) ?(alignment = false)
    ?(gamma = 0.5) (bg : Types.bdd_graph) =
  let start = Obs.Clock.now () in
  let elapsed () = Obs.Clock.now () -. start in
  let n = Graphs.Ugraph.num_nodes bg.graph in
  let initial =
    if n <= exact_oct_node_threshold then
      Label_oct.solve
        ~budget:(Resilience.Budget.slice budget ~frac:0.5)
        ~alignment ~gamma bg
    else Label_oct.greedy ~alignment ~gamma bg
  in
  let best_labels = ref (Array.copy initial.labels) in
  let best_obj = ref initial.objective in
  let transversal =
    Array.map (fun l -> l = Types.VH) initial.labels
  in
  (* The upgrade index of [transversal], built when a move is first
     scored after the transversal changed. *)
  let index = ref None in
  (* Every node by degree, highest first, ties by higher id: the order
     of a stable sort by degree over the nodes in descending id. The
     transversal only grows, so each round's candidates are the first
     nodes of this ranking outside it. *)
  let ranked =
    let degree = Array.init n (Graphs.Ugraph.degree bg.graph) in
    let by_degree a b =
      let c = compare degree.(b) degree.(a) in
      if c <> 0 then c else compare b a
    in
    let order = Array.init n Fun.id in
    Array.stable_sort by_degree order;
    order
  in
  let improved = ref true in
  let rounds = ref 0 and moves = ref 0 and accepted = ref 0 in
  while
    !improved && !rounds < max_rounds
    && not (Resilience.Budget.exhausted budget)
  do
    improved := false;
    incr rounds;
    (* Candidates: highest-degree non-VH nodes (splitting hubs changes the
       component structure most), plus the aligned nodes the paper's Fig 7
       explicitly upgrades. *)
    let hubs =
      let rec take i k =
        if i = n || k = 0 then []
        else if transversal.(ranked.(i)) then take (i + 1) k
        else ranked.(i) :: take (i + 1) (k - 1)
      in
      take 0 candidates_per_round
    in
    let aligned_candidates =
      bg.terminal
      :: List.filter_map
           (fun (_, r) ->
              match r with Types.Node v -> Some v | Types.Const_false -> None)
           bg.roots
    in
    let candidates = List.sort_uniq compare (aligned_candidates @ hubs) in
    let try_candidate v =
      if (not transversal.(v)) && not (Resilience.Budget.exhausted budget)
      then begin
        let idx =
          match !index with
          | Some idx -> idx
          | None ->
            (* A superset of a transversal is one: neither the index nor
               [orient] can raise. *)
            let idx = Balance.upgrade_index ~alignment bg ~transversal in
            index := Some idx;
            idx
        in
        incr moves;
        (* [orient]'s S and D for the move; [objective_of] reads only
           rows + cols and the larger of the two. *)
        let s, d = Balance.score idx v in
        let obj = Types.objective_of ~gamma ~rows:d ~cols:(s - d) in
        if obj < !best_obj -. 1e-9 then begin
          transversal.(v) <- true;
          best_obj := obj;
          best_labels := Balance.orient ~alignment bg ~transversal;
          improved := true;
          incr accepted
        end
        (* Keep the upgrade only if it is (part of) the incumbent. *)
        else if !best_labels.(v) = Types.VH then transversal.(v) <- true;
        if transversal.(v) then index := None
      end
    in
    List.iter try_candidate candidates
  done;
  (* With γ = 1 the VH-upgrade move cannot improve the objective, so the
     initial OCT optimality claim carries over. *)
  Obs.Counter.add c_rounds !rounds;
  Obs.Counter.add c_moves !moves;
  Obs.Counter.add c_accepted !accepted;
  Types.make_labeling bg ~gamma
    ~optimal:(gamma >= 1. -. 1e-9 && initial.optimal)
    ~lower_bound:initial.lower_bound ~solve_time:(elapsed ())
    ~method_name:"heuristic" !best_labels
