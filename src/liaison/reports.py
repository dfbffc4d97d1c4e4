"""One JSON shape for every report: the fields of its dataclass.

A report is a dataclass that subclasses Report.  Its as_dict lists each
field under its own name, unless the field's metadata["json"] gives
another name, or None to leave the field out.
"""

from dataclasses import fields


class Report:
    def as_dict(self):
        out = {}
        for f in fields(self):
            name = f.metadata.get("json", f.name)
            if name is not None:
                out[name] = json_value(getattr(self, f.name))
        return out


def json_value(value):
    """value as JSON data: reports and named tuples become dicts, other
    tuples lists, and anything JSON cannot hold its str.  Only reports are
    walked: other dataclasses, such as a RationalPoint, print as their str."""
    if isinstance(value, Report):
        return value.as_dict()
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {k: json_value(v) for k, v in value._asdict().items()}
    if isinstance(value, (tuple, list)):
        return [json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: json_value(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)
