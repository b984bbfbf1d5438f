from ..structures.shiny import ShinyTree


class FSBase:
    tree = ShinyTree
