(** A domain-safe, single-flight, in-process result memo.

    An in-process hash table guarded by a mutex. Lookups are
    {e single-flight}: when several workers ask for the same key at
    once, exactly one computes while the rest block on a condition
    variable and then read the finished value — concurrent evaluation
    of a shared dependency (e.g. the native run every SDT cell
    normalises against) costs one simulation, not [jobs].

    Nothing is persisted: entries live as long as the process, so a
    code change can never serve a result the old code computed, and
    keys need only be stable within one build ({!Fingerprint}). *)

type 'a t

val create : namespace:string -> 'a t
(** [namespace] labels the memo's telemetry. *)

val find : 'a t -> string -> (unit -> 'a) -> 'a
(** [find t key compute] returns the cached value for [key] or runs
    [compute] (at most once per key across all domains). If [compute]
    raises, the key is released and the exception propagates; a later
    [find] will retry. *)

val clear : 'a t -> unit
(** Drop every entry and zero the counters. Must not race an
    in-flight [find]. *)

(** {1 Counters} — monotone since the last {!clear}. *)

val hits : 'a t -> int
(** Served from memory (including single-flight waiters). *)

val misses : 'a t -> int
(** Values actually computed. *)

val waits : 'a t -> int
(** Lookups that blocked on another domain's in-flight computation
    (each such lookup also counts as a {!hits} once it resumes). *)
