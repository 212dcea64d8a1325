(** Persistent exploration-score cache: a thin typed view over
    {!Gpcc_util.Store} (the ["score"] kind) with an in-memory memo tier
    in front. See the mli. *)

module Store = Gpcc_util.Store

(* %h round-trips every finite float losslessly *)
let score_kind : float Store.kind =
  Store.make_kind ~name:"score" ~version:"1"
    ~encode:(fun s -> Printf.sprintf "%h" s)
    ~decode:(fun payload -> float_of_string_opt (String.trim payload))

type t = {
  store : Store.t;
  memo : (string, float) Hashtbl.t;
  mutex : Mutex.t;
  mutable hit_count : int;
  mutable miss_count : int;
}

let open_dir ?dir () : t =
  {
    store = Store.open_root ?root:dir ();
    memo = Hashtbl.create 64;
    mutex = Mutex.create ();
    hit_count = 0;
    miss_count = 0;
  }

let dir (c : t) = Store.root c.store

let locked (c : t) (f : unit -> 'a) : 'a =
  Mutex.lock c.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.mutex) f

let find (c : t) (key : string) : float option =
  locked c (fun () ->
      let result =
        match Hashtbl.find_opt c.memo key with
        | Some _ as s -> s
        | None -> (
            match Store.find c.store score_kind ~key with
            | Some s ->
                Hashtbl.replace c.memo key s;
                Some s
            | None -> None)
      in
      (match result with
      | Some _ -> c.hit_count <- c.hit_count + 1
      | None -> c.miss_count <- c.miss_count + 1);
      result)

let store (c : t) (key : string) (score : float) : unit =
  locked c (fun () -> Hashtbl.replace c.memo key score);
  Store.store c.store score_kind ~key score

let hits (c : t) : int = locked c (fun () -> c.hit_count)
let misses (c : t) : int = locked c (fun () -> c.miss_count)
let entries (c : t) : int = Store.entries ~kind:"score" c.store
let gc (c : t) : Store.gc_stats = Store.gc c.store

let clear (c : t) : unit =
  locked c (fun () -> Hashtbl.reset c.memo);
  Store.clear ~kind:"score" c.store
