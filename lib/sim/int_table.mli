(** A hash table on int keys. The hash multiplies the key and folds its
    high bits down, so keys that differ only above their low bits (a
    small index packed below a sequence number, say) still spread over the
    buckets. Nothing here hashes a string or builds a tuple. *)

include Hashtbl.S with type key = int
