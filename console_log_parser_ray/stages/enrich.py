"""Enrichment: tool classification and side-table lookups per turn.

The reference enriches each command row with side configuration --
chapter titles, suppression lists, hop links -- loaded once per file
(reference main.py:237-264, terminal2html.py:376-407), plus the
tool/palette dictionaries.  Here that is ``EnrichTurns``, a callable
applied in-task to each scanned table: by the flagship's partition
kernel (``pipelines.run.process_partition``, which ships the
``EnrichConfig`` to its tasks once through the object store) and by
the registry's live parse (``__ray_entry__._enriched``).  The call is
vectorized Arrow work over the table.

Enrichment adds: ``tool`` (first token of the command), ``tool_family``
and ``sink`` (dictionary lookups), ``chapter_title``, ``suppressed``,
``hop_to`` and ``hop_label`` (side-table lookups keyed on
(conv_id, cmd_count)).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# Default tool classification.
DEFAULT_TOOL_FAMILIES = {
    "git": "vcs",
    "ls": "shell",
    "cat": "shell",
    "du": "shell",
    "tail": "shell",
    "head": "shell",
    "grep": "search",
    "find": "search",
    "make": "build",
    "cmake": "build",
    "python": "lang",
    "python3": "lang",
    "node": "lang",
    "vim": "editor",
    "vi": "editor",
    "nano": "editor",
    "echo": "shell",
    "cd": "shell",
    "exit": "shell",
}
_FAMILY_SINK = {
    "vcs": "vcs",
    "shell": "shell",
    "search": "shell",
    "build": "build",
    "lang": "lang",
    "editor": "editor",
    "other": "other",
    "": "none",
}


class EnrichConfig:
    """Side tables for enrichment."""

    def __init__(
        self,
        tool_families=None,
        chapters=None,  # {(conv_id, cmd_count): title}
        suppress=None,  # {(conv_id, cmd_count)}
        hopto=None,  # {(conv_id, cmd_count): "target_conv#cmd"} (raw anchor)
        hop_labels=None,  # {(conv_id, cmd_count): display label, renumbered
        #                    through the target's suppress list}
    ):
        self.tool_families = tool_families or DEFAULT_TOOL_FAMILIES
        self.chapters = chapters or {}
        self.suppress = set(suppress or ())
        self.hopto = hopto or {}
        self.hop_labels = hop_labels or {}


class EnrichTurns:
    """Enrich a scanned table: ``EnrichTurns(cfg)(table)``.  ``cfg`` is
    an ``EnrichConfig``, an object-store reference to one, or None for
    the defaults."""

    def __init__(self, cfg_ref=None):
        if cfg_ref is None:
            self.cfg = EnrichConfig()
        else:
            import ray

            self.cfg = (
                ray.get(cfg_ref)
                if isinstance(cfg_ref, ray.ObjectRef)
                else cfg_ref
            )

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        commands = batch.column("command")

        # tool = first whitespace-delimited token of the command.
        # Dictionary-encode so the regex/dict work runs once per unique
        # command, not once per row.
        dict_arr = pc.dictionary_encode(
            commands.combine_chunks()
            if isinstance(commands, pa.ChunkedArray)
            else commands
        )
        if isinstance(dict_arr, pa.ChunkedArray):
            dict_arr = dict_arr.combine_chunks()
        uniq = dict_arr.dictionary.to_pylist()
        u_tools = [(c.split(None, 1)[0] if c and c.split() else "") for c in uniq]
        u_fams = [cfg.tool_families.get(t, "other" if t else "") for t in u_tools]
        u_sinks = [_FAMILY_SINK.get(f, "other") for f in u_fams]
        idx = dict_arr.indices
        tools = pc.take(pa.array(u_tools, pa.string()), idx)
        fams = pc.take(pa.array(u_fams, pa.string()), idx)
        sinks = pc.take(pa.array(u_sinks, pa.string()), idx)

        out = batch.append_column("tool", tools)
        out = out.append_column("tool_family", fams)
        out = out.append_column("sink", sinks)

        if cfg.chapters or cfg.suppress or cfg.hopto:
            conv_ids = batch.column("conv_id").to_pylist()
            cmds = batch.column("cmd_count").to_pylist()
            chapters, suppressed, hops, labels = [], [], [], []
            for cid, cc in zip(conv_ids, cmds):
                key = (cid, cc)
                chapters.append(cfg.chapters.get(key, ""))
                suppressed.append(key in cfg.suppress)
                hops.append(cfg.hopto.get(key, ""))
                labels.append(cfg.hop_labels.get(key, ""))
            out = out.append_column("chapter_title", pa.array(chapters, pa.string()))
            out = out.append_column("suppressed", pa.array(suppressed, pa.bool_()))
            out = out.append_column("hop_to", pa.array(hops, pa.string()))
            out = out.append_column("hop_label", pa.array(labels, pa.string()))
        else:
            n = batch.num_rows
            out = out.append_column(
                "chapter_title", pa.nulls(n, pa.string()).fill_null("")
            )
            out = out.append_column(
                "suppressed", pa.array([False] * n, pa.bool_())
            )
            out = out.append_column("hop_to", pa.nulls(n, pa.string()).fill_null(""))
            out = out.append_column(
                "hop_label", pa.nulls(n, pa.string()).fill_null("")
            )
        return out
