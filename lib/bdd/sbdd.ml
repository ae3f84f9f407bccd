type t = {
  man : Manager.t;
  input_order : string array;
  roots : (string * Manager.node) list;
}

let check_order (nl : Logic.Netlist.t) order =
  let sorted = List.sort String.compare in
  if sorted order <> sorted nl.inputs then
    invalid_arg "Sbdd: order is not a permutation of the netlist inputs"

let build_roots ?(budget = Resilience.Budget.unlimited) man ~levels
    (nl : Logic.Netlist.t) =
  (* Wire values keep their polarity: an inverted wire is stored as a
     pending negation, folded into the operator of each gate that reads
     it, and built only if an output is that inverted wire. *)
  let values = Hashtbl.create 64 in
  List.iter
    (fun v ->
       Hashtbl.replace values v
         (Build.positive (Manager.var man (Hashtbl.find levels v))))
    nl.inputs;
  let env w = Hashtbl.find values w in
  List.iter
    (fun (node : Logic.Netlist.node) ->
       (* One poll per netlist gate: BDD construction cannot return a
          partial diagram, so exhaustion raises instead of degrading. *)
       Resilience.Budget.check budget;
       Hashtbl.replace values node.wire (Build.signed_expr man ~env node.func))
    nl.nodes;
  List.map (fun o -> o, Build.to_node man (env o)) nl.outputs

let levels_of_order order =
  let levels = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace levels v i) order;
  levels

let of_netlist ?budget ?order ?(node_limit = max_int) (nl : Logic.Netlist.t) =
  let order = match order with Some o -> o | None -> Order.dfs_fanin nl in
  check_order nl order;
  let man = Manager.create ~node_limit ~num_vars:(List.length order) () in
  let levels = levels_of_order order in
  let roots = build_roots ?budget man ~levels nl in
  { man; input_order = Array.of_list order; roots }

let of_exprs ?order ?node_limit ~inputs named =
  let nodes =
    List.map (fun (name, e) -> Logic.Netlist.n_expr name e) named
  in
  let nl =
    Logic.Netlist.create ~name:"exprs" ~inputs
      ~outputs:(List.map fst named) nodes
  in
  of_netlist ?order ?node_limit nl

let of_netlist_separate ?order ?(node_limit = max_int) (nl : Logic.Netlist.t) =
  let order = match order with Some o -> o | None -> Order.dfs_fanin nl in
  check_order nl order;
  List.map
    (fun o ->
       let man = Manager.create ~node_limit ~num_vars:(List.length order) () in
       let levels = levels_of_order order in
       let single =
         Logic.Netlist.create ~name:(nl.name ^ "." ^ o) ~inputs:nl.inputs
           ~outputs:[ o ] nl.nodes
       in
       let roots = build_roots man ~levels single in
       { man; input_order = Array.of_list order; roots })
    nl.outputs

let size t = Manager.size t.man (List.map snd t.roots)
let stats t = Manager.stats t.man

(* In-place sifting: root handles survive, but the manager's levels are
   permuted, so the level -> input-name map is re-threaded through the
   returned permutation. The [input_order] array is mutated in place —
   every alias of this SBDD sees the new order, which is exactly what
   handle stability requires. *)
let sift ?budget t =
  let before = size t in
  let perm =
    Manager.sift_to_convergence ?budget t.man (List.map snd t.roots)
  in
  let old = Array.copy t.input_order in
  Array.iteri (fun lvl o -> t.input_order.(lvl) <- old.(o)) perm;
  (before, size t)

let num_edges t =
  let c = ref 0 in
  Manager.iter_edges t.man (List.map snd t.roots) (fun _ _ _ -> incr c);
  !c

(* The candidate search: every {!Order.candidates} order is built under
   [budget]. A build that passes [node_limit] is skipped; exhaustion ends
   the search. Returns the smallest complete diagram (the first on ties)
   and its size. *)
let search ~budget ?node_limit nl =
  let rec go best = function
    | [] -> best
    | order :: rest -> (
        match of_netlist ~budget ~order ?node_limit nl with
        | exception Manager.Size_limit _ -> go best rest
        | exception Resilience.Budget.Exhausted _ -> best
        | sbdd ->
          let sz = size sbdd in
          go
            (match best with
             | Some (_, best_sz) when best_sz <= sz -> best
             | _ -> Some (sbdd, sz))
            rest)
  in
  go None (Order.candidates nl)

let best_order ?node_limit nl =
  match search ~budget:Resilience.Budget.unlimited ?node_limit nl with
  | Some (sbdd, sz) -> Array.to_list sbdd.input_order, sz
  | None -> List.hd (List.rev (Order.candidates nl)), max_int

let improve ?(budget = Resilience.Budget.unlimited) ?order ?node_limit nl =
  let untimed = Resilience.Budget.untimed budget in
  let sbdd =
    match order with
    | Some order -> of_netlist ~budget:untimed ~order ?node_limit nl
    | None -> (
        match search ~budget ?node_limit nl with
        | Some (sbdd, _) -> sbdd
        | None -> of_netlist ~budget:untimed ?node_limit nl)
  in
  ignore (sift ~budget sbdd : int * int);
  sbdd

let eval t env =
  let env_lvl lvl = env t.input_order.(lvl) in
  List.map (fun (o, root) -> o, Manager.eval t.man root env_lvl) t.roots

let to_truth_table t =
  let inputs = Array.to_list t.input_order in
  Logic.Truth_table.create ~inputs ~outputs:(List.map fst t.roots)
    (fun point ->
       let env_lvl lvl = point.(lvl) in
       Array.of_list
         (List.map (fun (_, root) -> Manager.eval t.man root env_lvl) t.roots))
