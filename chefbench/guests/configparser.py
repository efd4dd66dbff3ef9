
def handle_line(cfg, section, s):
    if len(s) == 0:
        return section
    if s.startswith("#") or s.startswith(";"):
        return section
    if s.startswith("["):
        e = s.find("]")
        if e < 1:
            raise MissingSectionHeaderError
        section = s[1:e]
        cfg[section] = 0
        return section
    eq = s.find("=")
    if eq < 1:
        raise ParsingError
    if section == "":
        raise MissingSectionHeaderError
    key = s[0:eq].strip()
    if len(key) == 0:
        raise ParsingError
    val = s[eq + 1:len(s)].strip()
    cfg[section + "." + key] = val
    cfg[section] = cfg[section] + 1
    return section

def parse(text):
    cfg = {}
    section = ""
    line = ""
    i = 0
    n = len(text)
    while i <= n:
        advanced = 0
        if i < n:
            c = text[i]
            if c != "\n":
                line = line + c
                i = i + 1
                advanced = 1
        if advanced == 0:
            i = i + 1
            section = handle_line(cfg, section, line.strip())
            line = ""
    return len(cfg)
