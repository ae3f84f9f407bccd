(* Tests for the graph substrate: bipartiteness, matching, vertex cover
   and odd cycle transversal (Lemma 1 of the paper). *)

let check = Alcotest.check
let tb = Alcotest.bool
let ti = Alcotest.int

(* The @proptest alias re-runs the property tests with QCHECK_MULT-times
   the default case count (see test/dune). *)
let qcheck_mult =
  match Option.bind (Sys.getenv_opt "QCHECK_MULT") int_of_string_opt with
  | Some n when n > 0 -> n
  | Some _ | None -> 1

let qcheck_case ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:(count * qcheck_mult) ~name gen prop)

(* Random simple graph on [3, 10] vertices. *)
let graph_gen =
  QCheck2.Gen.(
    let* n = int_range 3 10 in
    let all_pairs =
      List.concat (List.init n (fun u -> List.init u (fun v -> u, v)))
    in
    let* keep = list_repeat (List.length all_pairs) bool in
    let edges = List.filteri (fun i _ -> List.nth keep i) all_pairs in
    return (n, edges))

let make_graph (n, edges) = Graphs.Ugraph.of_edges ~n edges

(* A random graph with a random set of kept vertices. *)
let residual_gen =
  QCheck2.Gen.(
    let* ((n, _) as spec) = graph_gen in
    let* keep = list_repeat n bool in
    return (spec, Array.of_list keep))

let cycle n =
  Graphs.Ugraph.of_edges ~n (List.init n (fun i -> i, (i + 1) mod n))

let path n = Graphs.Ugraph.of_edges ~n (List.init (n - 1) (fun i -> i, i + 1))

(* Brute-force minimum vertex cover by subset enumeration. *)
let brute_vc g =
  let n = Graphs.Ugraph.num_nodes g in
  let best = ref n in
  for mask = 0 to (1 lsl n) - 1 do
    let covered = ref true in
    Graphs.Ugraph.iter_edges
      (fun u v ->
         if mask land (1 lsl u) = 0 && mask land (1 lsl v) = 0 then
           covered := false)
      g;
    if !covered then begin
      let size = ref 0 in
      for i = 0 to n - 1 do
        if mask land (1 lsl i) <> 0 then incr size
      done;
      if !size < !best then best := !size
    end
  done;
  !best

(* Brute-force minimum OCT. *)
let brute_oct g =
  let n = Graphs.Ugraph.num_nodes g in
  let best = ref n in
  for mask = 0 to (1 lsl n) - 1 do
    let removed = ref [] in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then removed := i :: !removed
    done;
    if Graphs.Oct.is_transversal g !removed then begin
      let size = List.length !removed in
      if size < !best then best := size
    end
  done;
  !best

(* ------------------------------------------------------------------ *)

(* Random edge lists with repeats (either way round) and self-loops. *)
let edge_list_gen =
  QCheck2.Gen.(
    let* n = int_range 1 12 in
    let vertex = int_bound (n - 1) in
    let* edges = list_size (int_bound 40) (pair vertex vertex) in
    return (n, edges))

(* Every vertex's neighbours, in order, and the edge count. *)
let adjacency g =
  ( Graphs.Ugraph.num_edges g,
    List.init (Graphs.Ugraph.num_nodes g) (List_walks.neighbors g) )

let incremental_adjacency g =
  ( Incremental_graph.Ugraph.num_edges g,
    List.init
      (Incremental_graph.Ugraph.num_nodes g)
      (Incremental_graph.Ugraph.neighbors g) )

let ugraph_tests =
  [
    Alcotest.test_case "duplicates and self-loops ignored" `Quick (fun () ->
        let g = Graphs.Ugraph.of_edges ~n:3 [ 0, 1; 1, 0; 2, 2 ] in
        check ti "edges" 1 (Graphs.Ugraph.num_edges g);
        check ti "deg0" 1 (Graphs.Ugraph.degree g 0);
        check tb "has" true (Graphs.Ugraph.has_edge g 1 0);
        check tb "no self" false (Graphs.Ugraph.has_edge g 2 2));
    Alcotest.test_case "out-of-range rejected" `Quick (fun () ->
        check tb "raises" true
          (match Graphs.Ugraph.of_edges ~n:2 [ 0, 1; 0, 5 ] with
           | exception Invalid_argument _ -> true
           | _ -> false));
    Alcotest.test_case "iter_edges each edge once, ordered" `Quick (fun () ->
        let g = make_graph (4, [ 0, 1; 2, 1; 3, 0 ]) in
        let seen = ref [] in
        Graphs.Ugraph.iter_edges (fun u v -> seen := (u, v) :: !seen) g;
        List.iter (fun (u, v) -> check tb "u<v" true (u < v)) !seen;
        check ti "count" 3 (List.length !seen));
    qcheck_case "bulk construction equals incremental dedup" edge_list_gen
      (fun (n, edges) ->
         adjacency (Graphs.Ugraph.of_edges ~n edges)
         = incremental_adjacency (Incremental_graph.Ugraph.of_edges ~n edges));
  ]

let bipartite_tests =
  [
    Alcotest.test_case "even cycle is bipartite" `Quick (fun () ->
        check tb "c4" true (Graphs.Bipartite.is_bipartite (cycle 4));
        check tb "c6" true (Graphs.Bipartite.is_bipartite (cycle 6)));
    Alcotest.test_case "odd cycle is not bipartite" `Quick (fun () ->
        check tb "c3" false (Graphs.Bipartite.is_bipartite (cycle 3));
        check tb "c5" false (Graphs.Bipartite.is_bipartite (cycle 5)));
    Alcotest.test_case "two_color is proper" `Quick (fun () ->
        let g = cycle 6 in
        match Graphs.Bipartite.two_color g with
        | None -> Alcotest.fail "expected a colouring"
        | Some colors ->
          Graphs.Ugraph.iter_edges
            (fun u v -> check tb "proper" true (colors.(u) <> colors.(v)))
            g);
    Alcotest.test_case "odd_cycle witness is a valid odd cycle" `Quick
      (fun () ->
         let g = make_graph (6, [ 0, 1; 1, 2; 2, 0; 3, 4; 4, 5 ]) in
         match Graphs.Bipartite.odd_cycle g with
         | None -> Alcotest.fail "expected an odd cycle"
         | Some cyc ->
           check tb "odd length" true (List.length cyc mod 2 = 1);
           let arr = Array.of_list cyc in
           let k = Array.length arr in
           for i = 0 to k - 1 do
             check tb "edge" true
               (Graphs.Ugraph.has_edge g arr.(i) arr.((i + 1) mod k))
           done);
    Alcotest.test_case "components" `Quick (fun () ->
        let g = make_graph (5, [ 0, 1; 2, 3 ]) in
        let comp, k = Graphs.Bipartite.components g in
        check ti "count" 3 k;
        check tb "0~1" true (comp.(0) = comp.(1));
        check tb "2~3" true (comp.(2) = comp.(3));
        check tb "0!~2" true (comp.(0) <> comp.(2)));
    qcheck_case "two_color success iff no odd cycle" graph_gen (fun spec ->
        let g = make_graph spec in
        Graphs.Bipartite.is_bipartite g
        = (Graphs.Bipartite.odd_cycle g = None));
    Alcotest.test_case "residual of a path without its middle" `Quick
      (fun () ->
         match
           Graphs.Bipartite.residual (path 5)
             ~keep:[| true; true; false; true; true |]
         with
         | None -> Alcotest.fail "expected a colouring"
         | Some r ->
           check ti "components" 2 r.num_comps;
           check (Alcotest.array ti) "comp" [| 0; 0; -1; 1; 1 |] r.comp;
           check (Alcotest.array ti) "color" [| 0; 1; -1; 0; 1 |] r.color);
    (* The oracle: colour and components of the induced subgraph, read
       back through its vertex map. *)
    qcheck_case "residual matches two_color and components of induced"
      residual_gen (fun (((n, _) as spec), keep) ->
        let g = make_graph spec in
        let map = Array.make n (-1) and kept = ref 0 in
        Array.iteri
          (fun v k ->
             if k then begin
               map.(v) <- !kept;
               incr kept
             end)
          keep;
        let sub =
          Graphs.Ugraph.build ~n:!kept (fun add ->
              Graphs.Ugraph.iter_edges
                (fun u v -> if keep.(u) && keep.(v) then add map.(u) map.(v))
                g)
        in
        match
          Graphs.Bipartite.residual g ~keep, Graphs.Bipartite.two_color sub
        with
        | None, None -> true
        | Some _, None | None, Some _ -> false
        | Some r, Some color ->
          let comp, k = Graphs.Bipartite.components sub in
          let agrees v i =
            if i < 0 then r.color.(v) = -1 && r.comp.(v) = -1
            else r.color.(v) = color.(i) && r.comp.(v) = comp.(i)
          in
          r.num_comps = k && Array.for_all Fun.id (Array.mapi agrees map));
  ]

let matching_tests =
  [
    Alcotest.test_case "perfect matching on even cycle" `Quick (fun () ->
        let g = cycle 8 in
        let left = Array.init 8 (fun v -> v mod 2 = 0) in
        let mate = Graphs.Matching.hopcroft_karp g ~left in
        check ti "size" 4 (Graphs.Matching.matching_size mate));
    Alcotest.test_case "star has matching 1" `Quick (fun () ->
        let g = make_graph (5, [ 0, 1; 0, 2; 0, 3; 0, 4 ]) in
        let left = [| true; false; false; false; false |] in
        let mate = Graphs.Matching.hopcroft_karp g ~left in
        check ti "size" 1 (Graphs.Matching.matching_size mate));
    Alcotest.test_case "perfect_bipartite saturates the left side" `Quick
      (fun () ->
        (* i is compatible with k iff k >= i: the only full assignment is
           the identity. *)
        match
          Graphs.Matching.perfect_bipartite ~left:4 ~right:4
            ~compatible:(fun i k -> k >= i)
        with
        | None -> Alcotest.fail "assignment exists"
        | Some a ->
          Array.iteri (fun i k -> check ti "identity" i k) a);
    Alcotest.test_case "perfect_bipartite detects infeasibility" `Quick
      (fun () ->
        check tb "two lefts, one shared right" true
          (Graphs.Matching.perfect_bipartite ~left:2 ~right:2
             ~compatible:(fun _ k -> k = 0)
           = None);
        check tb "left larger than right" true
          (Graphs.Matching.perfect_bipartite ~left:3 ~right:2
             ~compatible:(fun _ _ -> true)
           = None));
    Alcotest.test_case "edge inside one side rejected" `Quick (fun () ->
        let g = make_graph (2, [ 0, 1 ]) in
        check tb "raises" true
          (match Graphs.Matching.hopcroft_karp g ~left:[| true; true |] with
           | exception Invalid_argument _ -> true
           | _ -> false));
    Alcotest.test_case "greedy maximal matching is a matching" `Quick
      (fun () ->
         let g = cycle 7 in
         let m = Graphs.Matching.greedy_maximal g in
         let used = Hashtbl.create 8 in
         List.iter
           (fun (u, v) ->
              check tb "fresh u" false (Hashtbl.mem used u);
              check tb "fresh v" false (Hashtbl.mem used v);
              Hashtbl.replace used u ();
              Hashtbl.replace used v ())
           m);
    (* Vertex_cover.solve's root bound is this matching's size; on G□K2
       it must be n, the LP optimum, or a timed-out search reports a
       weaker bound. *)
    qcheck_case "greedy matching of G□K2 has n edges" graph_gen
      (fun spec ->
         let g = make_graph spec in
         List.length (Graphs.Matching.greedy_maximal (Graphs.Oct.with_k2 g))
         = Graphs.Ugraph.num_nodes g);
  ]

let vc_tests =
  [
    Alcotest.test_case "triangle needs 2" `Quick (fun () ->
        check ti "vc" 2 (Graphs.Vertex_cover.solve (cycle 3)).size);
    Alcotest.test_case "star needs 1" `Quick (fun () ->
        let g = make_graph (5, [ 0, 1; 0, 2; 0, 3; 0, 4 ]) in
        check ti "vc" 1 (Graphs.Vertex_cover.solve g).size);
    Alcotest.test_case "path of 5 needs 2" `Quick (fun () ->
        check ti "vc" 2 (Graphs.Vertex_cover.solve (path 5)).size);
    Alcotest.test_case "empty graph needs 0" `Quick (fun () ->
        let r = Graphs.Vertex_cover.solve (Graphs.Ugraph.of_edges ~n:4 []) in
        check ti "vc" 0 r.size;
        check tb "optimal" true r.optimal);
    qcheck_case "solve matches brute force" ~count:60 graph_gen (fun spec ->
        let g = make_graph spec in
        let r = Graphs.Vertex_cover.solve g in
        r.optimal
        && Graphs.Vertex_cover.is_cover g r.cover
        && r.size = brute_vc g);
    qcheck_case "greedy cover is a cover" graph_gen (fun spec ->
        let g = make_graph spec in
        Graphs.Vertex_cover.is_cover g (Graphs.Vertex_cover.greedy_cover g));
  ]

let oct_tests =
  [
    Alcotest.test_case "product with K2 structure" `Quick (fun () ->
        let g = cycle 3 in
        let p = Graphs.Oct.with_k2 g in
        check ti "nodes" 6 (Graphs.Ugraph.num_nodes p);
        (* 2 copies of 3 edges + 3 rungs *)
        check ti "edges" 9 (Graphs.Ugraph.num_edges p);
        check tb "rung" true (Graphs.Ugraph.has_edge p 0 3);
        check tb "copy0" true (Graphs.Ugraph.has_edge p 0 1);
        check tb "copy1" true (Graphs.Ugraph.has_edge p 3 4));
    Alcotest.test_case "bipartite graph has empty OCT" `Quick (fun () ->
        let r = Graphs.Oct.solve (cycle 6) in
        check ti "oct" 0 (List.length r.transversal);
        check tb "optimal" true r.optimal);
    Alcotest.test_case "triangle has OCT 1" `Quick (fun () ->
        let r = Graphs.Oct.solve (cycle 3) in
        check ti "oct" 1 (List.length r.transversal));
    Alcotest.test_case "two disjoint triangles have OCT 2" `Quick (fun () ->
        let g = make_graph (6, [ 0, 1; 1, 2; 2, 0; 3, 4; 4, 5; 5, 3 ]) in
        let r = Graphs.Oct.solve g in
        check ti "oct" 2 (List.length r.transversal));
    qcheck_case "exact OCT matches brute force (Lemma 1)" ~count:40 graph_gen
      (fun spec ->
         let g = make_graph spec in
         let r = Graphs.Oct.solve g in
         r.optimal
         && Graphs.Oct.is_transversal g r.transversal
         && List.length r.transversal = brute_oct g);
    qcheck_case "greedy OCT is a transversal" graph_gen (fun spec ->
        let g = make_graph spec in
        let r = Graphs.Oct.greedy g in
        Graphs.Oct.is_transversal g r.transversal);
    qcheck_case "greedy OCT never beats exact" ~count:40 graph_gen
      (fun spec ->
         let g = make_graph spec in
         List.length (Graphs.Oct.greedy g).transversal
         >= List.length (Graphs.Oct.solve g).transversal);
  ]

let () =
  Alcotest.run "graphs"
    [
      "ugraph", ugraph_tests;
      "bipartite", bipartite_tests;
      "matching", matching_tests;
      "vertex_cover", vc_tests;
      "oct", oct_tests;
    ]
