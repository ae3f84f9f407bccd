(* Stress tests for the packed BDD manager: rehash-boundary canonicity,
   exact node budgets, and deep builds that would overflow the stack with
   a recursive implementation. *)

let check = Alcotest.check
let ti = Alcotest.int
let tb = Alcotest.bool

module M = Bdd.Manager

(* Tournament parity over [n] variables: O(n log n) ite work and worklists
   as deep as the variable order. *)
let balanced_parity man n =
  let rec reduce = function
    | [] -> M.zero
    | [ x ] -> x
    | xs ->
      let rec pair = function
        | a :: b :: rest -> M.xor man a b :: pair rest
        | tail -> tail
      in
      reduce (pair xs)
  in
  reduce (List.init n (M.var man))

let rehash_tests =
  [
    Alcotest.test_case "var handles survive table growth" `Quick (fun () ->
        (* The unique table starts at 4096 slots and rehashes at 75%
           load, so 5000 single-variable nodes cross the boundary. *)
        let man = M.create ~num_vars:5000 () in
        let before = Array.init 5000 (M.var man) in
        check tb "rehashed at least once" true ((M.stats man).growths >= 1);
        Array.iteri
          (fun i n -> check ti (Printf.sprintf "var %d" i) n (M.var man i))
          before);
    Alcotest.test_case "rebuild across rehashes is canonical" `Quick
      (fun () ->
         let man = M.create ~num_vars:4096 () in
         let p1 = balanced_parity man 4096 in
         check tb "rehashed during the build" true
           ((M.stats man).growths >= 1);
         let allocated_mid = M.allocated man in
         (* The second build must find every node in the regrown table:
            identical handle, not merely an equivalent diagram. *)
         let p2 = balanced_parity man 4096 in
         check ti "identical root handle" p1 p2;
         check ti "no new nodes on rebuild" allocated_mid (M.allocated man));
    Alcotest.test_case "mixed ops stay canonical after growth" `Quick
      (fun () ->
         let man = M.create ~num_vars:64 () in
         let f = balanced_parity man 64 in
         let g = M.and_ man (M.var man 0) (M.var man 1) in
         let h1 = M.ite man g f (M.not_ man f) in
         (* Force extra churn, then recompute the same function. *)
         ignore (balanced_parity man 63);
         M.clear_caches man;
         let h2 = M.ite man g f (M.not_ man f) in
         check ti "same handle after cache clear" h1 h2);
  ]

let budget_tests =
  [
    Alcotest.test_case "Size_limit fires at exactly the budget" `Quick
      (fun () ->
         (* allocated counts the two terminals; a budget of [2 + k]
            admits exactly [k] internal nodes. *)
         let k = 40 in
         let man = M.create ~node_limit:(2 + k) ~num_vars:64 () in
         for i = 0 to k - 1 do
           ignore (M.var man i)
         done;
         check ti "at budget" (2 + k) (M.allocated man);
         (* A lookup of an existing node must NOT raise... *)
         check ti "lookup at budget" (M.var man 0) (M.var man 0);
         (* ...but the next fresh allocation must. *)
         check tb "raises one past the budget" true
           (match M.var man k with
            | exception M.Size_limit reported ->
              reported = 2 + k
            | _ -> false));
    Alcotest.test_case "Size_limit aborts a deep ite cleanly" `Quick
      (fun () ->
         let man = M.create ~node_limit:600 ~num_vars:1024 () in
         check tb "raises" true
           (match balanced_parity man 1024 with
            | exception M.Size_limit _ -> true
            | _ -> false);
         (* The manager stays usable for lookups of existing nodes: the
            worklist scratch was reset by the abort. *)
         let v0 = M.var man 0 in
         check ti "existing node still canonical" v0 (M.var man 0);
         check tb "still consistent" true (M.eval man v0 (fun i -> i = 0)));
  ]

let deep_tests =
  [
    Alcotest.test_case "16k-var chained-XOR builds without overflow" `Quick
      (fun () ->
         (* Parity over 16384 variables: one node per level, so the
            diagram is 16k nodes deep — a recursive ite would blow the
            stack long before this. *)
         let n = 16384 in
         let man = M.create ~num_vars:n () in
         let p = balanced_parity man n in
         check tb ">= 10k nodes" true (M.size man [ p ] >= 10_000);
         (* Parity semantics on a few assignments. *)
         check tb "all-false" false (M.eval man p (fun _ -> false));
         check tb "one bit" true (M.eval man p (fun i -> i = 12_345));
         check tb "two bits" false
           (M.eval man p (fun i -> i = 3 || i = 9_999));
         (* Every variable is in the support. *)
         let support =
           List.sort_uniq compare
             (List.filter_map
                (fun m -> if M.is_terminal m then None else Some (M.level man m))
                (M.reachable man [ p ]))
         in
         check ti "support size" n (List.length support));
    Alcotest.test_case "deep any_sat satisfies a 12k-level parity" `Quick
      (fun () ->
        let n = 12_000 in
        let man = M.create ~num_vars:n () in
        let p = balanced_parity man n in
        (* Parity depends on every variable, so the path fixes all of
           them; walking it never overflows. *)
        match M.any_sat man p with
        | None -> Alcotest.fail "parity is satisfiable"
        | Some path ->
          check ti "every level fixed" n (List.length path);
          let value = Array.make n false in
          List.iter (fun (l, b) -> value.(l) <- b) path;
          check tb "satisfies" true (M.eval man p (Array.get value)));
  ]

let () =
  Alcotest.run "manager-stress"
    [
      "rehash", rehash_tests;
      "budget", budget_tests;
      "deep", deep_tests;
    ]
