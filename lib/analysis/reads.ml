(** What an access reads: hash-consed binding identities and the set of
    accesses a check has seen (see the interface). *)

open Gpcc_ast

(* deep enough that replicas differing in one constant hash apart *)
let deep_hash x = Hashtbl.hash_param 64 256 x

module Defs = Hashtbl.Make (struct
  type t = Ast.expr * int list

  let equal = ( = )
  let hash = deep_hash
end)

type access =
  string * string * bool * [ `Sc of Ast.expr list | `Vec of int * Ast.expr ]

module Seen = Hashtbl.Make (struct
  type t = access

  let equal = ( = )
  let hash = deep_hash
end)

(* the identities of each access text seen, forced only once the text
   repeats *)
type t = { defs : int Defs.t; seen : int list Lazy.t list ref Seen.t }

let create () = { defs = Defs.create 64; seen = Seen.create 64 }
let unbound = 0
let unknown = -1
let carried = -2

let names (id : string -> int) (e : Ast.expr) : int list =
  let rec go acc (e : Ast.expr) =
    match e with
    | Var v -> id v :: acc
    | Int_lit _ | Float_lit _ | Builtin _ -> acc
    | Unop (_, a) | Field (a, _) | Vload { v_index = a; _ } -> go acc a
    | Binop (_, a, b) -> go (go acc a) b
    | Index (_, es) | Call (_, es) -> List.fold_left go acc es
    | Select (a, b, c) -> go (go (go acc a) b) c
  in
  List.rev (go [] e)

let define (t : t) (e : Ast.expr) (ids : int list) : int =
  let key = (e, ids) in
  match Defs.find_opt t.defs key with
  | Some i -> i
  | None ->
      let i = Defs.length t.defs + 1 in
      Defs.add t.defs key i;
      i

let first (t : t) ~path ~arr ~store kind ids =
  let key = (path, arr, store, kind) in
  match Seen.find_opt t.seen key with
  | None ->
      Seen.add t.seen key (ref [ ids ]);
      true
  | Some seen ->
      let mine = Lazy.force ids in
      if List.exists (fun other -> Lazy.force other = mine) !seen then false
      else begin
        seen := ids :: !seen;
        true
      end
