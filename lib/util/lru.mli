(** A string-keyed table bounded by least-recently-used eviction: when
    it holds [capacity] entries, adding a new key drops the entry used
    least recently. Not domain-safe: each domain keeps its own, or a
    lock guards a shared one. *)

type 'a t

val create : int -> 'a t
(** An empty table holding at most [max 1 capacity] entries. *)

val find : 'a t -> string -> 'a option
(** The value of a key, which becomes the most recently used. *)

val add : 'a t -> string -> 'a -> unit
(** Enter or replace a key as the most recently used, evicting the
    least recently used entry when a new key finds the table full. *)
