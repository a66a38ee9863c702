"""Tests for the interning vocabulary and the database's packed storage."""

import pickle
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequences import ItemVocab, SequenceDatabase, TimedItem
from repro.sequences.vocab import vocab_sort_key

labels = st.sampled_from(["Home", "Work", "Eatery", "Gym", "Park"])
timed_items = st.builds(TimedItem, bin=st.integers(0, 23), label=labels)
timed_sequences = st.lists(st.lists(timed_items, max_size=6), max_size=8)


class TestItemVocab:
    def test_ids_are_dense_and_sorted_by_label_then_bin(self):
        items = [
            TimedItem(9, "Work"),
            TimedItem(7, "Home"),
            TimedItem(22, "Home"),
            TimedItem(12, "Eatery"),
        ]
        vocab = ItemVocab(items)
        assert len(vocab) == 4
        assert vocab.items == (
            TimedItem(12, "Eatery"),
            TimedItem(7, "Home"),
            TimedItem(22, "Home"),
            TimedItem(9, "Work"),
        )
        assert [vocab.encode(item) for item in vocab.items] == [0, 1, 2, 3]
        assert vocab.items == tuple(sorted(items, key=vocab_sort_key))

    def test_construction_order_does_not_matter(self):
        items = [TimedItem(b, l) for b in (3, 1, 2) for l in ("x", "y")]
        assert ItemVocab(items) == ItemVocab(reversed(items))
        assert ItemVocab(items + items) == ItemVocab(items)

    def test_unknown_item_raises_and_get_defaults(self):
        vocab = ItemVocab([TimedItem(9, "Work")])
        with pytest.raises(KeyError, match="not in this vocabulary"):
            vocab.encode(TimedItem(9, "Home"))
        assert vocab.get(TimedItem(9, "Home")) == -1
        assert vocab.get(TimedItem(9, "Home"), default=-7) == -7
        assert vocab.get(TimedItem(9, "Work")) == 0

    def test_decode_out_of_range_raises(self):
        vocab = ItemVocab([TimedItem(9, "Work")])
        with pytest.raises(IndexError):
            vocab.decode(1)
        with pytest.raises(IndexError):
            vocab.decode(-1)

    def test_decode_returns_the_shared_instance(self):
        vocab = ItemVocab([TimedItem(9, "Work"), TimedItem(7, "Home")])
        assert vocab.decode(0) is vocab.decode(0)
        seq = vocab.decode_sequence(array("i", [0, 1, 0]))
        assert seq[0] is seq[2]

    def test_sequence_round_trip(self):
        vocab = ItemVocab([TimedItem(b, "Home") for b in range(5)])
        original = (TimedItem(3, "Home"), TimedItem(0, "Home"), TimedItem(3, "Home"))
        encoded = vocab.encode_sequence(original)
        assert isinstance(encoded, array) and encoded.typecode == "i"
        assert vocab.decode_sequence(encoded) == original

    def test_heterogeneous_alphabet_falls_back_deterministically(self):
        mixed = ["b", 2, "a", 1]
        assert ItemVocab(mixed).items == ItemVocab(reversed(mixed)).items

    def test_pickle_round_trip_preserves_ids(self):
        vocab = ItemVocab([TimedItem(9, "Work"), TimedItem(7, "Home")])
        clone = pickle.loads(pickle.dumps(vocab))
        assert clone == vocab
        assert [clone.encode(item) for item in vocab.items] == [0, 1]

    @given(st.lists(timed_items, max_size=30))
    @settings(max_examples=50)
    def test_encode_decode_inverse(self, items):
        vocab = ItemVocab(items)
        for item in set(items):
            assert vocab.decode(vocab.encode(item)) == item
        assert len(vocab) == len(set(items))


class TestDatabasePackedStorage:
    def test_storage_round_trips_through_from_storage(self):
        db = SequenceDatabase([
            [TimedItem(9, "Work"), TimedItem(19, "Home")],
            [],
            [TimedItem(9, "Work")],
        ])
        flat, offsets = db.storage
        clone = SequenceDatabase.from_storage(flat, offsets, db.vocab, name=db.name)
        assert clone.sequences == db.sequences
        assert len(clone) == 3
        assert clone[1] == ()

    def test_pickle_ships_only_packed_state(self):
        db = SequenceDatabase([[TimedItem(9, "Work")], [TimedItem(7, "Home")]])
        _ = db.sequences  # populate the decoded cache; it must not travel
        clone = pickle.loads(pickle.dumps(db))
        assert clone.sequences == db.sequences
        assert clone.vocab == db.vocab

    @given(timed_sequences)
    @settings(max_examples=50)
    def test_object_view_survives_the_packed_representation(self, seqs):
        db = SequenceDatabase(seqs)
        assert db.sequences == tuple(tuple(s) for s in seqs)
        assert db.total_items() == sum(len(s) for s in seqs)
