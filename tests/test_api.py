"""The public names: every listed name exists, once."""

import photonbox
import photonbox.cli


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from photonbox import *", namespace)
    missing = [name for name in photonbox.__all__ if name not in namespace]
    assert missing == []


def test_public_names_listed_once():
    names = photonbox.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)


def test_cli_public_names_exist():
    assert [name for name in photonbox.cli.__all__ if not hasattr(photonbox.cli, name)] == []
