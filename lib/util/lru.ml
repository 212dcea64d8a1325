(** LRU-bounded string tables. See the mli. *)

type 'a cell = { v : 'a; mutable tick : int }

type 'a t = {
  tbl : (string, 'a cell) Hashtbl.t;
  capacity : int;
  mutable tick : int;
}

let create capacity =
  let capacity = max 1 capacity in
  { tbl = Hashtbl.create (min capacity 64); capacity; tick = 0 }

let next t =
  t.tick <- t.tick + 1;
  t.tick

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some (cell : _ cell) ->
      cell.tick <- next t;
      Some cell.v
  | None -> None

(* a linear scan: tables are small and eviction only happens at
   capacity *)
let evict t =
  let victim = ref None in
  Hashtbl.iter
    (fun key (cell : _ cell) ->
      match !victim with
      | Some (_, tick) when tick <= cell.tick -> ()
      | _ -> victim := Some (key, cell.tick))
    t.tbl;
  Option.iter (fun (key, _) -> Hashtbl.remove t.tbl key) !victim

let add t key v =
  if (not (Hashtbl.mem t.tbl key)) && Hashtbl.length t.tbl >= t.capacity then
    evict t;
  Hashtbl.replace t.tbl key { v; tick = next t }
